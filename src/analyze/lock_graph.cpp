#include "analyze/lock_graph.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "threads/tcb.h"

namespace dfth::analyze {

LockGraph& LockGraph::instance() {
  static LockGraph* graph = new LockGraph();  // leaked: hooks may outlive main
  return *graph;
}

bool LockGraph::reachable(const void* from, const void* to) const {
  std::vector<const void*> stack{from};
  std::unordered_set<const void*> visited;
  while (!stack.empty()) {
    const void* node = stack.back();
    stack.pop_back();
    if (node == to) return true;
    if (!visited.insert(node).second) continue;
    auto it = edges_.find(node);
    if (it == edges_.end()) continue;
    for (const void* succ : it->second) stack.push_back(succ);
  }
  return false;
}

void LockGraph::on_acquire(Tcb* t, const void* lock) {
  std::lock_guard<std::mutex> g(mu_);
  const void* inverted = nullptr;
  for (const void* held : t->held_locks) {
    if (held == lock) continue;  // recursive acquire is checked elsewhere
    if (!edges_[held].insert(lock).second) continue;  // edge already known
    // New order edge held → lock. If lock already reaches held, some other
    // acquisition chain ordered them the opposite way: a cycle.
    if (!inverted && reachable(lock, held)) inverted = held;
  }
  t->held_locks.push_back(lock);
  if (!inverted) return;

  ++cycles_;
  std::fprintf(stderr,
               "DFTH LockGraph: potential deadlock (lock-order inversion)\n"
               "  thread %llu acquired lock %p while holding lock %p,\n"
               "  but another acquisition chain orders %p before %p.\n"
               "  locks held by thread %llu:",
               static_cast<unsigned long long>(t->id), lock, inverted, lock,
               inverted, static_cast<unsigned long long>(t->id));
  for (const void* held : t->held_locks) std::fprintf(stderr, " %p", held);
  std::fprintf(stderr, "\n");
  if (abort_on_cycle_) std::abort();
}

void LockGraph::on_acquire_shared(Tcb* t, const void* lock) {
  // A shared hold constrains lock order exactly like an exclusive one under
  // the writer-preferring RwLock (it blocks the next writer), so the edge
  // and held-set bookkeeping are identical.
  on_acquire(t, lock);
}

void LockGraph::on_release(Tcb* t, const void* lock) {
  std::lock_guard<std::mutex> g(mu_);
  // Erase the most recent acquisition (locks are usually released LIFO, so
  // scanning from the back is one step).
  auto it = std::find(t->held_locks.rbegin(), t->held_locks.rend(), lock);
  if (it != t->held_locks.rend()) t->held_locks.erase(std::next(it).base());
}

void LockGraph::set_abort_on_cycle(bool abort_on_cycle) {
  std::lock_guard<std::mutex> g(mu_);
  abort_on_cycle_ = abort_on_cycle;
}

std::uint64_t LockGraph::cycles_detected() const {
  std::lock_guard<std::mutex> g(mu_);
  return cycles_;
}

std::size_t LockGraph::edge_count() const {
  std::lock_guard<std::mutex> g(mu_);
  std::size_t n = 0;
  for (const auto& [from, to] : edges_) n += to.size();
  return n;
}

void LockGraph::clear() {
  std::lock_guard<std::mutex> g(mu_);
  edges_.clear();
  cycles_ = 0;
}

}  // namespace dfth::analyze
