#include "core/scheduler.h"

#include <memory>

#include "analyze/auditor.h"
#include "analyze/validation.h"
#include "core/asyncdf_sched.h"
#include "core/clustered_sched.h"
#include "core/dfdeques_sched.h"
#include "core/fifo_sched.h"
#include "core/lifo_sched.h"
#include "core/worksteal_sched.h"
#include "util/check.h"

namespace dfth {

const char* to_string(SchedKind kind) {
  switch (kind) {
    case SchedKind::Fifo: return "fifo";
    case SchedKind::Lifo: return "lifo";
    case SchedKind::AsyncDf: return "asyncdf";
    case SchedKind::WorkSteal: return "worksteal";
    case SchedKind::ClusteredAdf: return "clustered";
    case SchedKind::DfDeques: return "dfdeques";
  }
  return "?";
}

SchedKind sched_kind_from_string(const std::string& name) {
  if (name == "fifo") return SchedKind::Fifo;
  if (name == "lifo") return SchedKind::Lifo;
  if (name == "asyncdf" || name == "adf" || name == "new") return SchedKind::AsyncDf;
  if (name == "worksteal" || name == "ws" || name == "cilk") return SchedKind::WorkSteal;
  if (name == "clustered" || name == "cadf") return SchedKind::ClusteredAdf;
  if (name == "dfdeques" || name == "dfd") return SchedKind::DfDeques;
  DFTH_CHECK_MSG(false, "unknown scheduler name");
}

std::unique_ptr<Scheduler> make_scheduler(SchedKind kind, int nprocs,
                                          std::uint64_t seed, int cluster_size) {
  std::unique_ptr<Scheduler> sched;
  switch (kind) {
    case SchedKind::Fifo: sched = std::make_unique<FifoScheduler>(); break;
    case SchedKind::Lifo: sched = std::make_unique<LifoScheduler>(); break;
    case SchedKind::AsyncDf: sched = std::make_unique<AsyncDfScheduler>(); break;
    case SchedKind::WorkSteal:
      sched = std::make_unique<WorkStealScheduler>(nprocs, seed);
      break;
    case SchedKind::ClusteredAdf:
      sched = std::make_unique<ClusteredAdfScheduler>(nprocs, cluster_size);
      break;
    case SchedKind::DfDeques:
      sched = std::make_unique<DfDequesScheduler>(nprocs);
      break;
  }
  DFTH_CHECK_MSG(sched != nullptr, "unknown scheduler kind");
  if (analyze::validation()) {
    sched = std::make_unique<analyze::AuditedScheduler>(std::move(sched));
  }
  return sched;
}

}  // namespace dfth
