// Resilience soak: the seven paper benchmarks, small configurations, with
// the fault injector armed on a randomized — but fully reproducible —
// schedule. The acceptance bar is binary: every app completes, nothing
// crashes, no DFTH_CHECK fires. CI runs this on the default build with a
// fixed seed; run it locally with --fault-seed 0 to soak a fresh
// schedule (the chosen seed is printed so any failure can be replayed).
//
// The injector is armed manually around the whole sweep rather than via
// RuntimeOptions::fault_plan: the apps_runner lambdas own their
// RuntimeOptions, and one arming also makes the per-site failure counters
// accumulate across all seven apps for the summary printed at the end.
//
// --record-dir / --replay-dir turn the soak into the record/replay
// acceptance harness: every fine-grained run writes (or replays) a per-app
// schedule log named <dir>/<pass>-<slug>.dfthlog, and a "DFTH-SIG" line per
// app carries the schedule-dependent RunStats signature so CI can diff the
// record leg against the replay leg textually. In these modes the fault
// plan travels through RuntimeOptions::fault_plan instead of manual arming
// — recording embeds the plan in the log header, and replay re-arms from
// that embedded copy, so the injector draws land on the pinned schedule.
//
// The real pass runs every app under AsyncDF (one scheduler lock domain)
// and under work stealing (one lock domain per lane), so the determinism
// gate covers steals between lanes under fault injection as well. Work
// stealing's logs and signatures carry a "-worksteal" suffix on the slug.
#include <cstdio>
#include <filesystem>
#include <random>

#include "apps_runner.h"
#include "replay/signature.h"
#include "resil/faults.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace dfth;
  bench::Common common("faults_soak",
                       "resilience soak: seven apps under injected faults");
  auto* fault_seed =
      common.cli.int_opt("fault-seed", 0, "fault-plan seed (0 = randomize and print)");
  auto* procs = common.cli.int_opt("procs", 4, "processor count");
  auto* record_dir = common.cli.str_opt(
      "record-dir", "", "record every run's schedule log into this directory");
  auto* replay_dir = common.cli.str_opt(
      "replay-dir", "", "replay every run from this directory's schedule logs");
  if (!common.parse(argc, argv)) return 0;

  const bool recording = !record_dir->empty();
  const bool replaying = !replay_dir->empty();
  if (recording && replaying) {
    std::fprintf(stderr,
                 "faults_soak: --record-dir and --replay-dir are exclusive\n");
    return 1;
  }
  if (recording) std::filesystem::create_directories(*record_dir);

  std::uint64_t seed = static_cast<std::uint64_t>(*fault_seed);
  if (seed == 0) {
    std::random_device rd;
    seed = (static_cast<std::uint64_t>(rd()) << 32) | rd();
    if (seed == 0) seed = 1;
  }
  std::printf("fault-plan seed: %llu  (replay with --fault-seed %llu)\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed));

  // Derive a mixed trigger per site from the seed: a deterministic every-Nth
  // beat (N in 2..8) plus a 2-10% Bernoulli draw, capped so a pathological
  // schedule cannot starve the bounded retry loops forever.
  resil::FaultPlan plan;
  plan.seed = seed;
  Rng rng(seed);
  for (int i = 0; i < resil::kNumFaultSites; ++i) {
    resil::SiteSpec& s = plan.sites[i];
    s.every_nth = static_cast<std::uint64_t>(rng.next_range(2, 8));
    s.probability = rng.next_double(0.02, 0.10);
    s.skip_first = static_cast<std::uint64_t>(rng.next_range(0, 4));
    s.max_failures = 100000;
  }
  // sync.timeout stays off: the apps use untimed waits only, and forcing
  // try_lock_for failures would test code the apps do not contain.
  plan.site(resil::FaultSite::kSyncTimeout) = resil::SiteSpec{};

  const int p = static_cast<int>(*procs);
  const auto app_seed = static_cast<std::uint64_t>(*common.seed);

  // Per-run record/replay target: the loop below points these at the next
  // app's log before calling fine(), and the tweak lambda (which apps_runner
  // invokes synchronously while building the run's options) reads them.
  std::string rr_path;
  std::string rr_tag;
  std::function<void(RuntimeOptions&)> tweak;
  if (recording) {
    tweak = [&rr_path, &rr_tag, &plan](RuntimeOptions& o) {
      o.record_path = rr_path;
      o.record_tag = rr_tag;
      o.fault_plan = &plan;  // embedded into the log header
    };
  } else if (replaying) {
    // No fault_plan here: replay arms from the plan embedded in the log, so
    // the draws belong to the recorded schedule even if the seeds differ.
    tweak = [&rr_path](RuntimeOptions& o) { o.replay_path = rr_path; };
  }

  // Build every input *before* arming: the generators df_malloc outside
  // run(), where there is no engine to absorb an injected failure.
  struct Pass {
    const char* tag;
    std::vector<bench::AppSpec> apps;
    std::vector<SchedKind> scheds;
  };
  Pass passes[] = {
      {"sim",
       bench::make_apps(/*full=*/false, app_seed, EngineKind::Sim, nullptr, tweak),
       {SchedKind::AsyncDf}},
      {"real",
       bench::make_apps(/*full=*/false, app_seed, EngineKind::Real, nullptr, tweak),
       {SchedKind::AsyncDf, SchedKind::WorkSteal}},
  };

  auto& inj = resil::FaultInjector::instance();
  if (!recording && !replaying) inj.arm(plan);

  int failures = 0;
  for (Pass& pass : passes) {
    for (bench::AppSpec& app : pass.apps) {
      for (SchedKind sched : pass.scheds) {
        const std::string suffix =
            sched == SchedKind::AsyncDf ? "" : std::string("-") + to_string(sched);
        const std::string slug = bench::app_slug(app.name) + suffix;
        const std::string label = app.name + " (" + pass.tag + suffix + ")";
        if (recording) {
          rr_path = *record_dir + "/" + pass.tag + "-" + slug + ".dfthlog";
          rr_tag = slug;
        } else if (replaying) {
          rr_path = *replay_dir + "/" + pass.tag + "-" + slug + ".dfthlog";
        }
        const std::uint64_t injected_before = inj.injected_total();
        const RunStats stats = app.fine(sched, p, app_seed);
        // Per-run arming (rec/rep modes) resets the injector's counters each
        // run, so the cumulative delta only works in the manually-armed mode.
        const std::uint64_t injected_here =
            (recording || replaying) ? stats.faults_injected
                                     : inj.injected_total() - injected_before;
        common.record(label, stats);
        std::printf(
            "%-4s %-9s %-14s %9.3f s  injected=%-6llu oom-preempts=%-5llu "
            "inline-runs=%-5llu%s\n",
            pass.tag, to_string(sched), app.name.c_str(), stats.elapsed_us / 1e6,
            static_cast<unsigned long long>(injected_here),
            static_cast<unsigned long long>(stats.oom_preemptions),
            static_cast<unsigned long long>(stats.inline_runs),
            injected_here == 0 ? "  (no faults hit this app)" : "");
        if (recording || replaying) {
          // CI diffs these lines between the record and replay legs; only the
          // real pass is a strict byte-for-byte determinism promise (the sim
          // pass cross-replays, where the engine re-derives its own stats).
          std::printf("DFTH-SIG %s/%s %s\n", pass.tag, slug.c_str(),
                      replay::determinism_signature(stats).c_str());
        }
        std::fflush(stdout);
        // Reaching this line at all means the run completed; a recovery bug
        // would have aborted or hung. Threads may never be lost, though:
        if (stats.threads_created == 0) {
          std::fprintf(stderr, "faults_soak: %s reported zero threads\n",
                       label.c_str());
          ++failures;
        }
      }
    }
  }

  if (recording || replaying) {
    std::printf(
        "-- injector armed per run via the schedule logs; cumulative "
        "totals not tracked in this mode --\n");
  } else {
    std::string summary;
    inj.append_summary(&summary);
    inj.disarm();
    std::printf("-- injector totals across all apps --\n%s", summary.c_str());
  }
  common.write_json();
  if (failures != 0) {
    std::fprintf(stderr, "faults_soak: %d app(s) failed (seed %llu)\n",
                 failures, static_cast<unsigned long long>(seed));
    return 1;
  }
  std::printf("faults_soak: all apps completed under seed %llu\n",
              static_cast<unsigned long long>(seed));
  return 0;
}
