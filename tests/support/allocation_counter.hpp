// allocation_counter.hpp — counts every heap allocation of a test binary
// that links allocation_counter.cpp (which replaces the global operator
// new), so a test can assert that a call allocates nothing.
#pragma once

namespace codesign::testing {

/// operator new calls made so far by this process.
long allocations();

}  // namespace codesign::testing
