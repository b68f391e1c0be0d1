// Scoped arming of the process-wide fault injector for tests.
#pragma once

#include <string>

#include "util/fault_injector.hpp"

namespace fault_test {

/// Arms `spec` for the guard's lifetime; the destructor disarms the
/// process-wide injector on every exit path, so a failed assertion or an
/// exception mid-test never leaves a site armed for later tests.
struct FaultGuard {
  explicit FaultGuard(const std::string& spec) {
    aflow::util::FaultInjector::instance().arm(spec);
  }
  ~FaultGuard() { aflow::util::FaultInjector::instance().disarm(); }
  FaultGuard(const FaultGuard&) = delete;
  FaultGuard& operator=(const FaultGuard&) = delete;
};

}  // namespace fault_test
