#include "apps/barnes/barnes.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "replay/hooks.h"
#include "runtime/api.h"
#include "runtime/sync.h"
#include "util/check.h"
#include "util/rng.h"

namespace dfth::apps {
namespace {

constexpr std::size_t kMaxDepth = 48;

// ---------------------------------------------------------------------------
// Octree
// ---------------------------------------------------------------------------

struct Cell {
  double center[3];
  double half = 0.0;  ///< half edge length
  Mutex mu;           ///< guards splits/inserts/child creation (build phase)
  std::atomic<bool> leaf_flag{true};
  std::size_t depth = 0;
  std::atomic<Cell*> child[8] = {};
  std::vector<std::uint32_t> bodies;  ///< leaf contents (body indices)

  bool is_leaf_relaxed() const { return leaf_flag.load(std::memory_order_relaxed); }

  // Filled by the center-of-mass pass.
  double mass = 0.0;
  double com[3] = {0, 0, 0};
  std::size_t nbodies = 0;
};

/// Bump arena for cells: one allocation region per timestep, df_malloc-backed
/// so tree memory shows in the space accounting. Thread-safe bump pointer.
class CellArena {
 public:
  explicit CellArena(std::size_t max_cells) : capacity_(max_cells) {
    raw_ = static_cast<Cell*>(df_malloc(sizeof(Cell) * capacity_));
  }
  ~CellArena() {
    const std::size_t used = used_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < used; ++i) raw_[i].~Cell();
    df_free(raw_);
  }
  Cell* make(const double center[3], double half, std::size_t depth) {
    const std::size_t i = used_.fetch_add(1, std::memory_order_relaxed);
    DFTH_CHECK_MSG(i < capacity_, "cell arena exhausted");
    Cell* c = new (&raw_[i]) Cell();
    c->center[0] = center[0];
    c->center[1] = center[1];
    c->center[2] = center[2];
    c->half = half;
    c->depth = depth;
    return c;
  }
  std::size_t used() const { return used_.load(std::memory_order_relaxed); }

 private:
  std::size_t capacity_;
  Cell* raw_;
  std::atomic<std::size_t> used_{0};
};

int octant_of(const Cell& cell, const Body& b) {
  return (b.pos[0] > cell.center[0] ? 1 : 0) |
         (b.pos[1] > cell.center[1] ? 2 : 0) |
         (b.pos[2] > cell.center[2] ? 4 : 0);
}

Cell* make_child(CellArena& arena, const Cell& parent, int octant) {
  const double q = parent.half / 2.0;
  double center[3] = {
      parent.center[0] + ((octant & 1) ? q : -q),
      parent.center[1] + ((octant & 2) ? q : -q),
      parent.center[2] + ((octant & 4) ? q : -q),
  };
  return arena.make(center, q, parent.depth + 1);
}

/// Inserts one body, SPLASH-2 style: descend optimistically without locks,
/// lock only the cell being modified ("this application uses Pthread
/// mutexes in the tree building phase, to synchronize modifications to the
/// partially built octree"), re-validate after acquiring, and retry if a
/// concurrent split got there first. Child pointers and the leaf flag are
/// atomics published with release stores so lock-free readers see fully
/// initialized cells.
void insert_body(CellArena& arena, Cell* cell, const std::vector<Body>& bodies,
                 std::uint32_t idx, std::size_t leaf_cap, bool use_locks) {
  // Under a record/replay session the optimistic descent is unreplayable by
  // construction: the unlocked leaf_flag/child reads observe concurrent
  // splits at physical-timing granularity, so the descent path (hence which
  // cell each insert locks) is schedule-dependent in a way the sync-order
  // log cannot pin. Degrade to the lock-first descent below — every tree-
  // state read then happens inside an ordered critical section, and the
  // logged lock order fully determines the tree.
  if (use_locks && replay::pinned()) {
    std::uint64_t hops = 0;
    while (true) {
      ++hops;
      cell->mu.lock();
      if (cell->is_leaf_relaxed()) {
        if (cell->bodies.size() < leaf_cap || cell->depth >= kMaxDepth) {
          cell->bodies.push_back(idx);
          cell->mu.unlock();
          break;
        }
        for (std::uint32_t resident : cell->bodies) {
          const int oct = octant_of(*cell, bodies[resident]);
          Cell* ch = cell->child[oct].load(std::memory_order_relaxed);
          if (!ch) {
            ch = make_child(arena, *cell, oct);
            cell->child[oct].store(ch, std::memory_order_release);
          }
          ch->bodies.push_back(resident);
        }
        cell->bodies.clear();
        cell->bodies.shrink_to_fit();
        cell->leaf_flag.store(false, std::memory_order_release);
        cell->mu.unlock();
        continue;  // now internal; descend under the next lock
      }
      const int oct = octant_of(*cell, bodies[idx]);
      Cell* next = cell->child[oct].load(std::memory_order_relaxed);
      if (!next) {
        next = make_child(arena, *cell, oct);
        cell->child[oct].store(next, std::memory_order_release);
      }
      cell->mu.unlock();
      cell = next;
    }
    annotate_work(hops * 12);
    return;
  }
  std::uint64_t hops = 0;
  while (true) {
    ++hops;
    if (cell->leaf_flag.load(std::memory_order_acquire)) {
      if (use_locks) cell->mu.lock();
      if (!cell->is_leaf_relaxed()) {
        // A concurrent insert split this cell between our check and the
        // lock: it is internal now, descend instead.
        if (use_locks) cell->mu.unlock();
        continue;
      }
      if (cell->bodies.size() < leaf_cap || cell->depth >= kMaxDepth) {
        cell->bodies.push_back(idx);
        if (use_locks) cell->mu.unlock();
        break;
      }
      // Split: push the resident bodies one level down, then retry. Each
      // child receives at most leaf_cap bodies, so no recursive split here.
      for (std::uint32_t resident : cell->bodies) {
        const int oct = octant_of(*cell, bodies[resident]);
        Cell* ch = cell->child[oct].load(std::memory_order_relaxed);
        if (!ch) {
          ch = make_child(arena, *cell, oct);
          cell->child[oct].store(ch, std::memory_order_release);
        }
        ch->bodies.push_back(resident);
      }
      cell->bodies.clear();
      cell->bodies.shrink_to_fit();
      cell->leaf_flag.store(false, std::memory_order_release);
      if (use_locks) cell->mu.unlock();
      continue;  // now internal; descend
    }
    const int oct = octant_of(*cell, bodies[idx]);
    Cell* next = cell->child[oct].load(std::memory_order_acquire);
    if (!next) {
      if (use_locks) cell->mu.lock();
      next = cell->child[oct].load(std::memory_order_relaxed);
      if (!next) {
        next = make_child(arena, *cell, oct);
        cell->child[oct].store(next, std::memory_order_release);
      }
      if (use_locks) cell->mu.unlock();
    }
    cell = next;
  }
  annotate_work(hops * 12);
}

/// Leaf COM needs the body array; separate pass entry that binds it.
std::size_t compute_com_with_bodies(Cell* cell, const std::vector<Body>& bodies) {
  // COM fields (mass/com/nbodies) are declared contiguously at the end of
  // Cell; one write annotation summarizes the whole block.
  df_write(&cell->mass,
           sizeof(cell->mass) + sizeof(cell->com) + sizeof(cell->nbodies),
           "barnes/compute_com:cell");
  if (cell->is_leaf_relaxed()) {
    double m = 0, cx = 0, cy = 0, cz = 0;
    for (std::uint32_t idx : cell->bodies) {
      const Body& b = bodies[idx];
      m += b.mass;
      cx += b.mass * b.pos[0];
      cy += b.mass * b.pos[1];
      cz += b.mass * b.pos[2];
    }
    cell->mass = m;
    cell->nbodies = cell->bodies.size();
    if (m > 0) {
      cell->com[0] = cx / m;
      cell->com[1] = cy / m;
      cell->com[2] = cz / m;
    }
    annotate_work(8 * cell->bodies.size() + 8);
    return cell->nbodies;
  }
  double m = 0, cx = 0, cy = 0, cz = 0;
  std::size_t count = 0;
  for (auto& slot : cell->child) {
    Cell* ch = slot.load(std::memory_order_relaxed);
    if (!ch) continue;
    count += compute_com_with_bodies(ch, bodies);
    m += ch->mass;
    cx += ch->mass * ch->com[0];
    cy += ch->mass * ch->com[1];
    cz += ch->mass * ch->com[2];
  }
  cell->mass = m;
  cell->nbodies = count;
  if (m > 0) {
    cell->com[0] = cx / m;
    cell->com[1] = cy / m;
    cell->com[2] = cz / m;
  }
  annotate_work(72);
  return count;
}

/// Barnes-Hut acceleration on one body; returns interaction count.
std::uint64_t force_on_body(const Cell* root, const std::vector<Body>& bodies,
                            Body& target, double theta, double eps2) {
  std::uint64_t interactions = 0;
  df_write(target.acc, sizeof(target.acc), "barnes/force_on_body:acc");
  target.acc[0] = target.acc[1] = target.acc[2] = 0.0;
  // Explicit stack walk (cheap + no recursion-depth concerns).
  const Cell* stack[256];
  int top = 0;
  stack[top++] = root;
  while (top > 0) {
    const Cell* cell = stack[--top];
    if (cell->nbodies == 0) continue;
    const double dx = cell->com[0] - target.pos[0];
    const double dy = cell->com[1] - target.pos[1];
    const double dz = cell->com[2] - target.pos[2];
    const double dist2 = dx * dx + dy * dy + dz * dz + eps2;
    const double size = 2.0 * cell->half;
    const bool leaf = cell->is_leaf_relaxed();
    if (leaf || size * size < theta * theta * dist2) {
      if (leaf) {
        for (std::uint32_t idx : cell->bodies) {
          const Body& other = bodies[idx];
          if (&other == &target) continue;
          const double bx = other.pos[0] - target.pos[0];
          const double by = other.pos[1] - target.pos[1];
          const double bz = other.pos[2] - target.pos[2];
          const double r2 = bx * bx + by * by + bz * bz + eps2;
          const double inv = 1.0 / std::sqrt(r2);
          const double f = other.mass * inv * inv * inv;
          target.acc[0] += f * bx;
          target.acc[1] += f * by;
          target.acc[2] += f * bz;
          ++interactions;
        }
      } else {
        const double inv = 1.0 / std::sqrt(dist2);
        const double f = cell->mass * inv * inv * inv;
        target.acc[0] += f * dx;
        target.acc[1] += f * dy;
        target.acc[2] += f * dz;
        ++interactions;
      }
    } else {
      for (const auto& slot : cell->child) {
        if (const Cell* ch = slot.load(std::memory_order_relaxed)) {
          DFTH_CHECK(top < 256);
          stack[top++] = ch;
        }
      }
    }
  }
  return interactions;
}

void leapfrog_update(Body& b, double dt) {
  df_write(&b, sizeof(Body), "barnes/leapfrog:body");
  for (int d = 0; d < 3; ++d) {
    b.vel[d] += b.acc[d] * dt;
    b.pos[d] += b.vel[d] * dt;
  }
}

double bounding_half(const std::vector<Body>& bodies) {
  double extent = 1.0;
  for (const auto& b : bodies) {
    for (double coordinate : b.pos) extent = std::max(extent, std::fabs(coordinate));
  }
  return extent * 1.01;
}

// -- fine-grained helpers -----------------------------------------------------

/// Recursively spawns force computations: a new thread per subtree until the
/// subtree has at most `cutoff * bodies_per_leaf` bodies (the paper: the
/// recursion "terminated when the subtree had (on average) under 8 leaves").
void fine_forces(const Cell* root, const Cell* cell, std::vector<Body>& bodies,
                 const BarnesConfig& cfg, double eps2,
                 std::atomic<std::uint64_t>& interactions) {
  if (cell->is_leaf_relaxed() ||
      cell->nbodies <= cfg.leaf_cutoff * cfg.bodies_per_leaf) {
    // Compute forces for every body in this subtree.
    std::uint64_t local = 0;
    const Cell* stack[256];
    int top = 0;
    stack[top++] = cell;
    while (top > 0) {
      const Cell* c = stack[--top];
      if (c->is_leaf_relaxed()) {
        for (std::uint32_t idx : c->bodies) {
          const std::uint64_t n =
              force_on_body(root, bodies, bodies[idx], cfg.theta, eps2);
          df_write(&bodies[idx].work, sizeof(std::uint64_t),
                   "barnes/fine_forces:work");
          bodies[idx].work = n;
          local += n;
        }
      } else {
        for (const auto& slot : c->child) {
          if (const Cell* ch = slot.load(std::memory_order_relaxed)) {
            DFTH_CHECK(top < 256);
            stack[top++] = ch;
          }
        }
      }
    }
    annotate_work(local * 25);
    interactions.fetch_add(local, std::memory_order_relaxed);
    return;
  }
  Thread kids[8];
  int nk = 0;
  for (auto& slot : cell->child) {
    Cell* ch = slot.load(std::memory_order_relaxed);
    if (!ch) continue;
    kids[nk++] = spawn([root, ch, &bodies, &cfg, eps2, &interactions]() -> void* {
      fine_forces(root, ch, bodies, cfg, eps2, interactions);
      return nullptr;
    });
  }
  for (int i = 0; i < nk; ++i) join(kids[i]);
}

// -- coarse-grained helpers (costzones) -----------------------------------------

std::uint64_t morton_key(const Body& b, double half) {
  // 10 bits per axis over the bounding cube.
  auto quantize = [half](double x) {
    const double t = (x + half) / (2.0 * half);
    return static_cast<std::uint32_t>(
        std::clamp(t, 0.0, 0.999999) * 1024.0);
  };
  const std::uint32_t qx = quantize(b.pos[0]), qy = quantize(b.pos[1]),
                      qz = quantize(b.pos[2]);
  std::uint64_t key = 0;
  for (int bit = 9; bit >= 0; --bit) {
    key = (key << 3) | (((qx >> bit) & 1u) << 2) | (((qy >> bit) & 1u) << 1) |
          ((qz >> bit) & 1u);
  }
  return key;
}

/// Contiguous equal-cost zones over bodies in Morton order ("costzones").
std::vector<std::size_t> costzone_bounds(const std::vector<Body>& bodies,
                                         const std::vector<std::uint32_t>& order,
                                         int parts) {
  std::vector<std::size_t> bounds(static_cast<std::size_t>(parts) + 1, 0);
  std::uint64_t total = 0;
  for (const auto& b : bodies) total += b.work;
  std::uint64_t running = 0;
  int part = 1;
  for (std::size_t i = 0; i < order.size() && part < parts; ++i) {
    running += bodies[order[i]].work;
    if (running >= total * static_cast<std::uint64_t>(part) /
                       static_cast<std::uint64_t>(parts)) {
      bounds[static_cast<std::size_t>(part)] = i + 1;
      ++part;
    }
  }
  for (; part < parts; ++part) bounds[static_cast<std::size_t>(part)] = order.size();
  bounds[static_cast<std::size_t>(parts)] = order.size();
  return bounds;
}

}  // namespace

std::vector<Body> barnes_generate(const BarnesConfig& cfg) {
  // Plummer model (Aarseth, Henon & Wielen 1974): sample radius from the
  // cumulative mass profile, isotropic direction, velocity from the local
  // escape-speed distribution via von Neumann rejection.
  Rng rng(cfg.seed);
  std::vector<Body> bodies(cfg.bodies);
  const double scale = 16.0 / (3.0 * 3.14159265358979323846);
  for (auto& b : bodies) {
    b.mass = 1.0 / static_cast<double>(cfg.bodies);
    // Radius: m uniform in (0,1), r = (m^(-2/3) - 1)^(-1/2).
    double r;
    do {
      const double m = rng.next_double(1e-8, 0.999);
      r = 1.0 / std::sqrt(std::pow(m, -2.0 / 3.0) - 1.0);
    } while (r > 8.0);  // clip distant outliers, as standard generators do
    // Isotropic position.
    const double z = rng.next_double(-1.0, 1.0);
    const double phi = rng.next_double(0.0, 2.0 * 3.14159265358979323846);
    const double rxy = std::sqrt(std::max(0.0, 1.0 - z * z));
    b.pos[0] = r * rxy * std::cos(phi);
    b.pos[1] = r * rxy * std::sin(phi);
    b.pos[2] = r * z;
    // Speed via rejection: g(q) = q^2 (1-q^2)^(7/2), q = v / v_esc.
    double q, g;
    do {
      q = rng.next_double(0.0, 1.0);
      g = rng.next_double(0.0, 0.1);
    } while (g > q * q * std::pow(1.0 - q * q, 3.5));
    const double vesc = std::sqrt(2.0) * std::pow(1.0 + r * r, -0.25);
    const double speed = q * vesc;
    const double vz = rng.next_double(-1.0, 1.0);
    const double vphi = rng.next_double(0.0, 2.0 * 3.14159265358979323846);
    const double vxy = std::sqrt(std::max(0.0, 1.0 - vz * vz));
    b.vel[0] = speed * vxy * std::cos(vphi) * scale;
    b.vel[1] = speed * vxy * std::sin(vphi) * scale;
    b.vel[2] = speed * vz * scale;
    b.acc[0] = b.acc[1] = b.acc[2] = 0.0;
    b.work = 1;
  }
  return bodies;
}

BarnesResult barnes_serial(std::vector<Body> bodies, const BarnesConfig& cfg) {
  const double eps2 = cfg.eps * cfg.eps;
  std::uint64_t total_inter = 0;
  for (int step = 0; step < cfg.timesteps; ++step) {
    const double half = bounding_half(bodies);
    CellArena arena(bodies.size() * 4 + 64);
    const double origin[3] = {0, 0, 0};
    Cell* root = arena.make(origin, half, 0);
    for (std::uint32_t i = 0; i < bodies.size(); ++i) {
      insert_body(arena, root, bodies, i, cfg.bodies_per_leaf, /*use_locks=*/false);
    }
    compute_com_with_bodies(root, bodies);
    for (auto& b : bodies) {
      const std::uint64_t n = force_on_body(root, bodies, b, cfg.theta, eps2);
      b.work = n;
      total_inter += n;
      annotate_work(n * 25);
    }
    for (auto& b : bodies) leapfrog_update(b, cfg.dt);
    annotate_work(bodies.size() * 9);
  }
  return BarnesResult{std::move(bodies), total_inter};
}

BarnesResult barnes_fine(std::vector<Body> bodies, const BarnesConfig& cfg) {
  DFTH_CHECK_MSG(in_runtime(), "barnes_fine outside dfth::run");
  const double eps2 = cfg.eps * cfg.eps;
  std::atomic<std::uint64_t> total_inter{0};
  for (int step = 0; step < cfg.timesteps; ++step) {
    const double half = bounding_half(bodies);
    CellArena arena(bodies.size() * 4 + 64);
    const double origin[3] = {0, 0, 0};
    Cell* root = arena.make(origin, half, 0);

    // Phase 1: parallel tree build — one thread per chunk of bodies,
    // inserting concurrently under per-cell mutexes.
    {
      const std::size_t chunk =
          std::max<std::size_t>(bodies.size() / 32, cfg.bodies_per_leaf * cfg.leaf_cutoff);
      std::vector<Thread> threads;
      threads.reserve(bodies.size() / chunk + 1);
      for (std::size_t lo = 0; lo < bodies.size(); lo += chunk) {
        const std::size_t hi = std::min(bodies.size(), lo + chunk);
        threads.push_back(spawn([&, lo, hi]() -> void* {
          for (std::size_t i = lo; i < hi; ++i) {
            insert_body(arena, root, bodies, static_cast<std::uint32_t>(i),
                        cfg.bodies_per_leaf, /*use_locks=*/true);
          }
          return nullptr;
        }));
      }
      for (auto& t : threads) join(t);
    }

    // Phase 2: centers of mass (cheap, O(cells); done by this thread).
    compute_com_with_bodies(root, bodies);

    // Phase 3: forces — recursive spawning over subtrees; no partitioning.
    fine_forces(root, root, bodies, cfg, eps2, total_inter);

    // Phase 4: position/velocity update — a thread per chunk.
    {
      const std::size_t chunk = std::max<std::size_t>(bodies.size() / 64, 256);
      std::vector<Thread> threads;
      for (std::size_t lo = 0; lo < bodies.size(); lo += chunk) {
        const std::size_t hi = std::min(bodies.size(), lo + chunk);
        threads.push_back(spawn([&, lo, hi]() -> void* {
          for (std::size_t i = lo; i < hi; ++i) leapfrog_update(bodies[i], cfg.dt);
          annotate_work((hi - lo) * 9);
          return nullptr;
        }));
      }
      for (auto& t : threads) join(t);
    }
  }
  return BarnesResult{std::move(bodies), total_inter.load()};
}

BarnesResult barnes_coarse(std::vector<Body> bodies, const BarnesConfig& cfg,
                           int nprocs) {
  DFTH_CHECK_MSG(in_runtime(), "barnes_coarse outside dfth::run");
  const double eps2 = cfg.eps * cfg.eps;
  std::atomic<std::uint64_t> total_inter{0};

  for (int step = 0; step < cfg.timesteps; ++step) {
    const double half = bounding_half(bodies);
    CellArena arena(bodies.size() * 4 + 64);
    const double origin[3] = {0, 0, 0};
    Cell* root = arena.make(origin, half, 0);

    // Costzones: bodies in Morton (tree) order, zones of ~equal estimated
    // work from the previous step's interaction counts.
    std::vector<std::uint32_t> order(bodies.size());
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      return morton_key(bodies[a], half) < morton_key(bodies[b], half);
    });
    annotate_work(bodies.size() * 12);
    const auto zones = costzone_bounds(bodies, order, nprocs);

    Barrier barrier(nprocs);
    std::vector<Thread> threads;
    threads.reserve(static_cast<std::size_t>(nprocs));
    for (int t = 0; t < nprocs; ++t) {
      const std::size_t lo = zones[static_cast<std::size_t>(t)];
      const std::size_t hi = zones[static_cast<std::size_t>(t) + 1];
      threads.push_back(spawn([&, t, lo, hi]() -> void* {
        // Phase 1: parallel build of this zone's bodies (per-cell locks).
        for (std::size_t i = lo; i < hi; ++i) {
          insert_body(arena, root, bodies, order[i], cfg.bodies_per_leaf,
                      /*use_locks=*/true);
        }
        barrier.arrive_and_wait();
        // Phase 2: COM by thread 0 (O(cells), negligible).
        if (t == 0) compute_com_with_bodies(root, bodies);
        barrier.arrive_and_wait();
        // Phase 3: forces over the zone.
        std::uint64_t local = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          Body& b = bodies[order[i]];
          const std::uint64_t n = force_on_body(root, bodies, b, cfg.theta, eps2);
          b.work = n;
          local += n;
        }
        annotate_work(local * 25);
        total_inter.fetch_add(local, std::memory_order_relaxed);
        barrier.arrive_and_wait();
        // Phase 4: updates over the zone.
        for (std::size_t i = lo; i < hi; ++i) leapfrog_update(bodies[order[i]], cfg.dt);
        annotate_work((hi - lo) * 9);
        return nullptr;
      }));
    }
    for (auto& t : threads) join(t);
  }
  return BarnesResult{std::move(bodies), total_inter.load()};
}

void barnes_direct_forces(std::vector<Body>& bodies, const BarnesConfig& cfg) {
  const double eps2 = cfg.eps * cfg.eps;
  for (auto& target : bodies) {
    target.acc[0] = target.acc[1] = target.acc[2] = 0.0;
    for (const auto& other : bodies) {
      if (&other == &target) continue;
      const double dx = other.pos[0] - target.pos[0];
      const double dy = other.pos[1] - target.pos[1];
      const double dz = other.pos[2] - target.pos[2];
      const double r2 = dx * dx + dy * dy + dz * dz + eps2;
      const double inv = 1.0 / std::sqrt(r2);
      const double f = other.mass * inv * inv * inv;
      target.acc[0] += f * dx;
      target.acc[1] += f * dy;
      target.acc[2] += f * dz;
    }
  }
}

double barnes_max_rel_acc_error(const std::vector<Body>& test,
                                const std::vector<Body>& ref) {
  DFTH_CHECK(test.size() == ref.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    double diff2 = 0, norm2 = 0;
    for (int d = 0; d < 3; ++d) {
      const double delta = test[i].acc[d] - ref[i].acc[d];
      diff2 += delta * delta;
      norm2 += ref[i].acc[d] * ref[i].acc[d];
    }
    if (norm2 > 1e-20) worst = std::max(worst, std::sqrt(diff2 / norm2));
  }
  return worst;
}

double barnes_total_energy(const std::vector<Body>& bodies, double eps) {
  const double eps2 = eps * eps;
  double kinetic = 0.0, potential = 0.0;
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    const Body& a = bodies[i];
    kinetic += 0.5 * a.mass *
               (a.vel[0] * a.vel[0] + a.vel[1] * a.vel[1] + a.vel[2] * a.vel[2]);
    for (std::size_t j = i + 1; j < bodies.size(); ++j) {
      const Body& b = bodies[j];
      const double dx = a.pos[0] - b.pos[0];
      const double dy = a.pos[1] - b.pos[1];
      const double dz = a.pos[2] - b.pos[2];
      potential -= a.mass * b.mass / std::sqrt(dx * dx + dy * dy + dz * dz + eps2);
    }
  }
  return kinetic + potential;
}

}  // namespace dfth::apps
