#include "obs/profile.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <mutex>

namespace dfth::obs {
namespace {

/// The displayed site name keeps only the basename — source_location hands
/// us full build-tree paths, which would make every collapsed stack as wide
/// as the checkout path.
std::string site_label(const std::string& file, int line) {
  const std::size_t slash = file.find_last_of('/');
  std::string base =
      slash == std::string::npos ? file : file.substr(slash + 1);
  if (line <= 0) return base;
  char buf[32];
  std::snprintf(buf, sizeof buf, ":%d", line);
  return base + buf;
}

}  // namespace

Profiler::Profiler() { begin_run(); }

Profiler::~Profiler() {
  // A session must not outlive installation (dfth::run uninstalls it before
  // returning), but guard against a caller destroying an installed one.
  if (profiler() == this) detail::g_profiler.store(nullptr);
}

void Profiler::begin_run() {
  std::lock_guard<SpinLock> g(mu_);
  fibers_.clear();
  sites_.clear();
  site_ids_.clear();
  trie_.clear();
  trie_children_.clear();
  arena_.clear();
  work_ns_ = overhead_ns_ = fiber_count_ = 0;
  max_span_ns_ = max_burden_ns_ = 0;
  max_depth_ = crit_segments_ = 0;
  crit_head_ = nullptr;
  stats_ = ProfileStats{};
  elapsed_us_ = 0;
  nprocs_ = 0;
  sites_.push_back({"main", 0});
  trie_.push_back({0, 0, 0});
}

void Profiler::end_run(double elapsed_us, int nprocs) {
  std::lock_guard<SpinLock> g(mu_);
  // Fibers still live at the end of the run (the caller's root, anything
  // blocked at teardown) compete for the span with their current value.
  for (const Fiber& f : fibers_) {
    if (f.seen && !f.finished) compete_for_span(f);
  }
  stats_.enabled = true;
  stats_.work_ns = work_ns_;
  stats_.span_ns = max_span_ns_;
  stats_.burdened_span_ns = std::max(max_burden_ns_, max_span_ns_);
  stats_.overhead_ns = overhead_ns_;
  stats_.fibers = fiber_count_;
  stats_.fork_depth = max_depth_;
  stats_.span_segments = crit_segments_;
  elapsed_us_ = elapsed_us;
  nprocs_ = nprocs;
}

Profiler::Fiber& Profiler::fiber(std::uint64_t tid) {
  if (tid >= fibers_.size()) fibers_.resize(tid + 1);
  return fibers_[tid];
}

std::uint32_t Profiler::intern_site(const char* file, int line) {
  std::string key = (file ? file : "?");
  key += ':';
  key += std::to_string(line);
  auto it = site_ids_.find(key);
  if (it != site_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(sites_.size());
  sites_.push_back({file ? file : "?", line});
  site_ids_.emplace(std::move(key), id);
  return id;
}

std::uint32_t Profiler::trie_child(std::uint32_t parent, std::uint32_t site) {
  const std::uint64_t key = (static_cast<std::uint64_t>(parent) << 32) | site;
  auto it = trie_children_.find(key);
  if (it != trie_children_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(trie_.size());
  trie_.push_back({parent, site, 0});
  trie_children_.emplace(key, id);
  return id;
}

std::string Profiler::stack_string(std::uint32_t node) const {
  std::vector<std::uint32_t> path;
  for (std::uint32_t n = node; n != 0; n = trie_[n].parent) path.push_back(n);
  std::string out = "main";
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    const Site& s = sites_[trie_[*it].site];
    out += ';';
    out += site_label(s.file, s.line);
  }
  return out;
}

void Profiler::accrue_ledger(Fiber& f, std::uint64_t ns) {
  if (f.head_owned && f.head && f.head->node == f.node) {
    f.head->ns += ns;
    return;
  }
  arena_.push_back({f.node, ns, f.head});
  f.head = &arena_.back();
  f.head_owned = true;
}

void Profiler::flush_offset(Fiber& f, std::uint64_t offset_ns) {
  if (offset_ns <= f.prepaid_ns) return;
  const std::uint64_t amount = offset_ns - f.prepaid_ns;
  f.prepaid_ns = offset_ns;
  f.span_ns += amount;
  f.burden_ns += amount;
  work_ns_ += amount;
  trie_[f.node].self_work_ns += amount;
  accrue_ledger(f, amount);
}

void Profiler::adopt_span(std::uint64_t to_tid, std::uint64_t from_tid) {
  fiber(std::max(to_tid, from_tid));  // grow once: both references stay valid
  Fiber& from = fibers_[from_tid];
  Fiber& to = fibers_[to_tid];
  seal(from);  // `to` may share its ledger from here on
  if (from.span_ns > to.span_ns) {
    to.span_ns = from.span_ns;
    to.segments = from.segments + 1;
    to.head = from.head;
    to.head_owned = false;
  }
  to.burden_ns = std::max(to.burden_ns, from.burden_ns);
}

void Profiler::compete_for_span(const Fiber& f) {
  if (f.span_ns > max_span_ns_) {
    max_span_ns_ = f.span_ns;
    crit_segments_ = f.segments;
    crit_head_ = f.head;
  }
  max_burden_ns_ = std::max(max_burden_ns_, f.burden_ns);
}

void Profiler::thread_start(std::uint64_t child, std::uint64_t parent,
                            std::uint64_t offset_ns, const char* file,
                            int line) {
  std::lock_guard<SpinLock> g(mu_);
  ++fiber_count_;
  // Resolve the parent *before* fiber(child) — that call may grow fibers_
  // and invalidate references.
  std::uint64_t base_span = 0, base_burden = 0;
  std::uint32_t base_depth = 0, base_segments = 0;
  Ledger* base_head = nullptr;
  std::uint32_t parent_node = 0;
  if (parent != 0) {
    Fiber& p = fiber(parent);
    flush_offset(p, offset_ns);  // materialize uncharged work before sharing
    base_span = p.span_ns;
    base_burden = p.burden_ns;
    base_depth = p.depth;
    base_segments = p.segments;
    base_head = p.head;
    parent_node = p.node;
    seal(p);  // the child now shares the parent's ledger
    ++p.segments;  // the fork ends the parent's segment
  }
  Fiber& c = fiber(child);
  c.seen = true;
  c.finished = false;
  c.depth = base_depth + 1;
  c.segments = base_segments + 1;
  max_depth_ = std::max(max_depth_, c.depth);
  c.span_ns = base_span;
  c.burden_ns = base_burden;
  c.prepaid_ns = 0;
  c.head = base_head;
  c.head_owned = false;
  c.node = trie_child(parent_node, intern_site(file, line));
}

void Profiler::work(std::uint64_t tid, std::uint64_t ns) {
  if (ns == 0) return;
  std::lock_guard<SpinLock> g(mu_);
  Fiber& f = fiber(tid);
  f.seen = true;
  // Edges may have flushed part of this charge already (prepaid); only the
  // remainder lands now. `ns` covers the same interval the offsets came
  // from, so ns >= prepaid — the max() is a defensive clamp.
  const std::uint64_t amount = ns > f.prepaid_ns ? ns - f.prepaid_ns : 0;
  f.prepaid_ns = 0;
  if (amount == 0) return;
  f.span_ns += amount;
  f.burden_ns += amount;
  work_ns_ += amount;
  trie_[f.node].self_work_ns += amount;
  accrue_ledger(f, amount);
}

void Profiler::overhead(std::uint64_t tid, std::uint64_t ns) {
  (void)tid;
  if (ns == 0) return;
  std::lock_guard<SpinLock> g(mu_);
  overhead_ns_ += ns;
}

void Profiler::dispatch(std::uint64_t tid, std::uint64_t overhead_ns,
                        std::uint64_t gap_ns) {
  std::lock_guard<SpinLock> g(mu_);
  overhead_ns_ += overhead_ns;
  Fiber& f = fiber(tid);
  f.burden_ns += overhead_ns + gap_ns;
}

void Profiler::fork_cost(std::uint64_t child, std::uint64_t ns) {
  if (ns == 0) return;
  std::lock_guard<SpinLock> g(mu_);
  overhead_ns_ += ns;
  fiber(child).burden_ns += ns;
}

void Profiler::join_edge(std::uint64_t joiner, std::uint64_t child,
                         std::uint64_t offset_ns) {
  std::lock_guard<SpinLock> g(mu_);
  flush_offset(fiber(joiner), offset_ns);
  adopt_span(joiner, child);
}

void Profiler::wake_edge(std::uint64_t waker, std::uint64_t wakee,
                         std::uint64_t offset_ns) {
  std::lock_guard<SpinLock> g(mu_);
  flush_offset(fiber(waker), offset_ns);
  adopt_span(wakee, waker);
}

void Profiler::steal(std::uint64_t tid, std::uint64_t burden_ns) {
  if (burden_ns == 0) return;
  std::lock_guard<SpinLock> g(mu_);
  fiber(tid).burden_ns += burden_ns;
}

void Profiler::exit_fiber(std::uint64_t tid, std::uint64_t offset_ns) {
  if (offset_ns != 0) work(tid, offset_ns);
  std::lock_guard<SpinLock> g(mu_);
  Fiber& f = fiber(tid);
  f.finished = true;
  seal(f);
  compete_for_span(f);
}

std::vector<CritSegment> Profiler::critical_path() const {
  std::lock_guard<SpinLock> g(mu_);
  std::map<std::uint32_t, std::uint64_t> by_node;
  for (const Ledger* l = crit_head_; l; l = l->prev) by_node[l->node] += l->ns;
  std::vector<CritSegment> out;
  out.reserve(by_node.size());
  for (const auto& [node, ns] : by_node) out.push_back({stack_string(node), ns});
  std::sort(out.begin(), out.end(),
            [](const CritSegment& a, const CritSegment& b) {
              return a.ns != b.ns ? a.ns > b.ns : a.stack < b.stack;
            });
  return out;
}

std::vector<CollapsedLine> Profiler::collapsed() const {
  std::lock_guard<SpinLock> g(mu_);
  std::vector<CollapsedLine> out;
  for (const Node& n : trie_) {
    if (n.self_work_ns == 0) continue;
    out.push_back(
        {stack_string(static_cast<std::uint32_t>(&n - trie_.data())),
         n.self_work_ns});
  }
  std::sort(out.begin(), out.end(),
            [](const CollapsedLine& a, const CollapsedLine& b) {
              return a.work_ns != b.work_ns ? a.work_ns > b.work_ns
                                            : a.stack < b.stack;
            });
  return out;
}

}  // namespace dfth::obs
