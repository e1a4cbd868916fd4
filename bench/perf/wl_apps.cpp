// apps: the seven paper applications at their default (scaled-down) sizes,
// each as plain serial code called outside run(), AsyncDF at p = 1 and at
// p = nproc, and WorkSteal at p = nproc, interleaved rep by rep. Every
// threaded result is checked against the serial one with the comparators and
// tolerances of tests/apps/. Kernels dominate most of these programs; the
// scheduler shows mainly in spmv, matmul and the decision tree.
//
// The seed draws matrix, signal, particle and vector values and the order of
// the bodies and instances. The data that set how much work an app does (the
// Plummer body set, the decision-tree dataset, the sparsity pattern, the
// volume) keep the apps' default seeds, so a run's cost does not depend on
// the seed.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/barnes/barnes.h"
#include "apps/dtree/dtree.h"
#include "apps/fft/fft.h"
#include "apps/fmm/fmm.h"
#include "apps/matmul/matmul.h"
#include "apps/spmv/spmv.h"
#include "apps/volrend/volrend.h"
#include "harness.h"
#include "util/rng.h"

namespace dfth::perf {
namespace {

/// A df_malloc'd array (the paper's space metric counts program data).
template <typename T>
struct DfArray {
  struct Free {
    void operator()(T* p) const { df_free(p); }
  };
  std::unique_ptr<T, Free> p;
  explicit DfArray(std::size_t n) : p(static_cast<T*>(df_malloc(n * sizeof(T)))) {}
  T* get() const { return p.get(); }
};

struct App {
  std::string slug;
  std::function<void()> serial;     ///< plain code, outside run()
  std::function<void()> threaded;   ///< inside run()
  std::function<std::string()> check;  ///< "" when the last threaded run matched
  /// Poisons an output buffer the app writes in place, before each unit, so
  /// that the result the previous unit left there cannot pass the check.
  std::function<void()> reset = [] {};
};

std::string diff_msg(const char* what, double diff, double tol) {
  if (diff < tol) return "";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", diff);
  return std::string(what) + " differs from serial by " + buf;
}

std::vector<App> make_apps(std::uint64_t seed, bool smoke) {
  std::vector<App> apps;
  {
    struct S {
      apps::MatmulConfig cfg;
      DfArray<double> a, b, c, ref;
      explicit S(std::size_t n) : a(n * n), b(n * n), c(n * n), ref(n * n) {}
    };
    const std::size_t n = smoke ? 128 : 512;
    auto s = std::make_shared<S>(n);
    s->cfg.n = n;
    s->cfg.base = smoke ? 32 : 64;
    apps::matmul_fill(s->a.get(), n, seed);
    apps::matmul_fill(s->b.get(), n, seed + 1);
    apps::matmul_serial(s->a.get(), s->b.get(), s->ref.get(), s->cfg);
    apps.push_back({"matmul",
                    [s] { apps::matmul_serial(s->a.get(), s->b.get(), s->c.get(), s->cfg); },
                    [s] { apps::matmul_threaded(s->a.get(), s->b.get(), s->c.get(), s->cfg); },
                    [s] {
                      return diff_msg("matmul",
                                      apps::matmul_max_abs_diff(s->c.get(), s->ref.get(),
                                                                s->cfg.n),
                                      1e-9);
                    },
                    [s] { poison(s->c.get(), s->cfg.n * s->cfg.n); }});
  }
  {
    struct S {
      apps::BarnesConfig cfg;
      std::vector<apps::Body> bodies;
      apps::BarnesResult ref, out;
    };
    auto s = std::make_shared<S>();
    s->cfg.bodies = smoke ? 512 : 8192;
    s->cfg.timesteps = smoke ? 1 : 2;
    s->bodies = apps::barnes_generate(s->cfg);
    shuffle(s->bodies, seed);
    s->ref = apps::barnes_serial(s->bodies, s->cfg);
    apps.push_back({"barnes-hut",
                    [s] { s->out = apps::barnes_serial(s->bodies, s->cfg); },
                    [s] { s->out = apps::barnes_fine(s->bodies, s->cfg); },
                    [s]() -> std::string {
                      if (s->out.interactions != s->ref.interactions ||
                          s->out.bodies.size() != s->ref.bodies.size()) {
                        return "barnes: interaction count differs from serial";
                      }
                      double worst = 0;
                      for (std::size_t i = 0; i < s->out.bodies.size(); ++i) {
                        for (int d = 0; d < 3; ++d) {
                          worst = std::max(worst, std::fabs(s->out.bodies[i].pos[d] -
                                                            s->ref.bodies[i].pos[d]));
                        }
                      }
                      return diff_msg("barnes positions", worst, 1e-9);
                    }});
  }
  {
    struct S {
      apps::FmmConfig cfg;
      std::vector<apps::FmmParticle> in, ref, out;
    };
    auto s = std::make_shared<S>();
    s->cfg.particles = smoke ? 500 : 4000;
    s->cfg.levels = smoke ? 2 : 3;
    s->cfg.terms = 5;
    s->cfg.chunk = 9;
    s->cfg.seed = seed;
    s->in = apps::fmm_generate(s->cfg);
    s->ref = s->in;
    apps::fmm_serial(s->ref, s->cfg);
    apps.push_back({"fmm",
                    [s] {
                      s->out = s->in;
                      apps::fmm_serial(s->out, s->cfg);
                    },
                    [s] {
                      s->out = s->in;
                      apps::fmm_threaded(s->out, s->cfg);
                    },
                    [s] {
                      double worst = 0;
                      for (std::size_t i = 0; i < s->ref.size(); ++i) {
                        worst = std::max(worst,
                                         std::abs(s->out[i].potential - s->ref[i].potential));
                      }
                      return diff_msg("fmm potentials", worst, 1e-9);
                    }});
  }
  {
    struct S {
      apps::DtreeConfig cfg;
      std::vector<apps::Instance> data;
      std::unique_ptr<apps::DtreeNode> ref, out;
    };
    auto s = std::make_shared<S>();
    s->cfg.instances = smoke ? 3000 : 30000;
    s->data = apps::dtree_generate(s->cfg);
    shuffle(s->data, seed);
    s->ref = apps::dtree_build_serial(s->data, s->cfg);
    apps.push_back({"decision-tree",
                    [s] { s->out = apps::dtree_build_serial(s->data, s->cfg); },
                    [s] { s->out = apps::dtree_build_threaded(s->data, s->cfg); },
                    [s]() -> std::string {
                      return s->out && apps::dtree_equal(*s->out, *s->ref)
                                 ? ""
                                 : "decision tree differs from serial";
                    }});
  }
  {
    struct S {
      std::size_t n;
      int threads;
      DfArray<apps::Complex> in, out, ref;
      S(std::size_t n_, int t) : n(n_), threads(t), in(n_), out(n_), ref(n_) {}
    };
    auto s = std::make_shared<S>(smoke ? std::size_t{1} << 12 : std::size_t{1} << 18,
                                 smoke ? 16 : 256);
    apps::fft_fill(s->in.get(), s->n, seed);
    apps::FftPlan(s->n).execute_serial(s->in.get(), s->ref.get());
    apps.push_back({"fftw",
                    [s] { apps::FftPlan(s->n).execute_serial(s->in.get(), s->out.get()); },
                    [s] {
                      apps::FftPlan(s->n).execute_threaded(s->in.get(), s->out.get(),
                                                           s->threads);
                    },
                    [s] {
                      return diff_msg("fft",
                                      apps::fft_max_abs_diff(s->out.get(), s->ref.get(), s->n),
                                      1e-12);
                    },
                    [s] { poison(s->out.get(), s->n); }});
  }
  {
    struct S {
      apps::SpmvConfig cfg;
      std::unique_ptr<apps::CsrMatrix> m;
      std::vector<double> v, w, ref;
    };
    auto s = std::make_shared<S>();
    if (smoke) {
      s->cfg.rows = 2048;
      s->cfg.target_nnz = 10240;
      s->cfg.threads_per_iter = 16;
    }
    s->cfg.iterations = smoke ? 2 : 10;
    s->m = std::make_unique<apps::CsrMatrix>(s->cfg.rows, s->cfg.rows);
    apps::spmv_generate(*s->m, s->cfg);
    Rng rng(seed);
    s->v.resize(s->cfg.rows);
    for (double& x : s->v) x = rng.next_double(-1, 1);
    s->w.assign(s->cfg.rows, 0.0);
    s->ref.assign(s->cfg.rows, 0.0);
    apps::spmv_serial(*s->m, s->v.data(), s->ref.data());
    apps.push_back({"sparse-matrix",
                    [s] {
                      for (int i = 0; i < s->cfg.iterations; ++i) {
                        apps::spmv_serial(*s->m, s->v.data(), s->w.data());
                      }
                    },
                    [s] { apps::spmv_fine(*s->m, s->v.data(), s->w.data(), s->cfg); },
                    [s] {
                      return diff_msg("spmv",
                                      apps::spmv_max_abs_diff(s->w.data(), s->ref.data(),
                                                              s->cfg.rows),
                                      1e-12);
                    },
                    [s] { poison(s->w.data(), s->w.size()); }});
  }
  {
    struct S {
      apps::VolrendConfig cfg;
      std::unique_ptr<apps::Volume> vol;
      apps::Image ref, out;
    };
    auto s = std::make_shared<S>();
    s->cfg.volume_dim = smoke ? 32 : 128;
    s->cfg.image_dim = smoke ? 32 : 192;
    s->cfg.tiles_per_thread = smoke ? 8 : 64;
    s->vol = std::make_unique<apps::Volume>(s->cfg);
    s->ref = apps::volrend_serial(*s->vol, s->cfg);
    apps.push_back({"vol-rend",
                    [s] { s->out = apps::volrend_serial(*s->vol, s->cfg); },
                    [s] { s->out = apps::volrend_fine(*s->vol, s->cfg); },
                    [s]() -> std::string {
                      return apps::volrend_images_equal(s->out, s->ref)
                                 ? ""
                                 : "volume rendering differs from serial";
                    }});
  }
  return apps;
}

}  // namespace

void run_apps(const Ctx& ctx, Results& res) {
  std::vector<App> apps;
  auto tweak = [](RuntimeOptions& o) { o.default_stack_size = 8 << 10; };
  const double setup_s = timed_setup([&] {
    apps.clear();  // free the previous set-up's inputs first
    apps = make_apps(ctx.seed, ctx.smoke);
  });
  const int n_apps = static_cast<int>(apps.size());

  // The app runs in a child of the main fiber, so every unit also times one
  // spawn and one join.
  auto in_child = [](const std::function<void()>& fn) {
    return [&fn] {
      const std::uint64_t s0 = span_begin();
      Thread t = spawn([&fn]() -> void* {
        fn();
        return nullptr;
      });
      span_end("spawn", s0);
      const std::uint64_t s1 = span_begin();
      join(t);
      span_end("join", s1);
    };
  };

  // The parallel variants are the cheap ones here: they run twice a rep.
  std::vector<Unit> units;
  rep_loop(ctx, n_apps,
           {Variant::Serial, Variant::Pn, Variant::Ws, Variant::P1, Variant::Pn, Variant::Ws},
           [&](int a, Variant v, bool traced) {
             const App& app = apps[static_cast<std::size_t>(a)];
             app.reset();
             Unit u = v == Variant::Serial
                          ? run_unit(ctx, v, traced, app.serial)
                          : run_unit(ctx, v, traced, in_child(app.threaded), tweak);
             u.item = a;
             units.push_back(std::move(u));
             ++res.attempted;
             const std::string err = app.check();
             res.check(err.empty(), app.slug + " " + to_string(v) + ": " + err);
           });

  add_batch_e2e(res, units, n_apps, setup_s);
  for (int a = 0; a < n_apps; ++a) {
    const std::string pre = "apps." + apps[static_cast<std::size_t>(a)].slug;
    const double ser = median(unit_ms(units, Variant::Serial, false, a));
    const double p1 = median(unit_ms(units, Variant::P1, false, a));
    const double pn = median(unit_ms(units, Variant::Pn, false, a));
    res.add_info(pre + ".serial_ms", ser, "ms");
    res.add_info(pre + ".p1_ms", p1, "ms");
    res.add_info(pre + ".pn_ms", pn, "ms");
    res.add_info(pre + ".ws_ms", median(unit_ms(units, Variant::Ws, false, a)), "ms");
    res.add_info(pre + ".speedup", ser / pn, "x");
    res.add_info(pre + ".p1_overhead", p1 / ser, "x");
    std::vector<double> heap;
    for (const Unit& u : units) {
      if (u.item == a && !u.traced && u.variant == Variant::Pn) heap.push_back(u.heap_mb);
    }
    res.add_info(pre + ".heap_peak_mb", median(heap), "MiB");
  }
  res.add_info("pn_units", static_cast<double>(unit_ms(units, Variant::Pn, false, 0).size()),
               "count");
  if (!ctx.traced) return;
  add_layer_metrics(ctx, res, units);
  for (int a = 0; a < n_apps; ++a) {
    const std::string pre = "apps." + apps[static_cast<std::size_t>(a)].slug;
    const double ser = median(unit_ms(units, Variant::Serial, false, a));
    const double pn = median(unit_ms(units, Variant::Pn, false, a));
    std::vector<double> hi;
    for (const Unit& u : units) {
      if (u.item == a && u.traced && u.variant == Variant::Pn && u.stats.profile.enabled) {
        hi.push_back(u.stats.elapsed_us * 1e3 / u.stats.profile.predict_hi_ns(ctx.nproc));
      }
    }
    res.add_layer(pre + ".pn_ms", pn, "ms", "wall_ms");
    res.add_layer(pre + ".speedup", ser / pn, "x", "speedup");
    res.add_layer(pre + ".brent_hi_ratio", median(hi), "ratio", "speedup");
  }
}

}  // namespace dfth::perf
