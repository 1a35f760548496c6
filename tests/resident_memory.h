#ifndef FAIRJOB_TESTS_RESIDENT_MEMORY_H_
#define FAIRJOB_TESTS_RESIDENT_MEMORY_H_

#include <fstream>
#include <string>

// Resident set in MB from /proc/self/status; 0 off Linux and under a
// sanitizer, whose shadow memory would swamp the program's own. Memory
// tests skip their bound when it reads 0.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FAIRJOB_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define FAIRJOB_TEST_SANITIZED 1
#endif
#endif

namespace fairjob {

inline double ResidentMb() {
#if defined(__linux__) && !defined(FAIRJOB_TEST_SANITIZED)
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
#endif
  return 0.0;
}

}  // namespace fairjob

#endif  // FAIRJOB_TESTS_RESIDENT_MEMORY_H_
