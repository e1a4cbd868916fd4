// Linked into every test binary (dfth_test in tests/CMakeLists.txt): turns
// the validation switch on before main, so every engine run in the suite
// is audited (analyze/auditor.h) and lock-graphed (analyze/lock_graph.h).
#include "analyze/validation.h"

namespace {

[[maybe_unused]] const bool kValidationOn = (dfth::analyze::set_validation(true), true);

}  // namespace
