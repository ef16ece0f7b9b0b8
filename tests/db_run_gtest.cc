// Linked into every test binary: a check that a shared database run
// (bench/db_run.h) fails is a gtest failure of the running test, where a
// bench would print it and exit 2.

#include <gtest/gtest.h>

#include <string>

#include "db_run.h"

namespace {

const bool kReportsToGtest = [] {
  fastcommit::bench::report_check_failure = [](const std::string& what) {
    ADD_FAILURE() << what;
  };
  return true;
}();

}  // namespace
