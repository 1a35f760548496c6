#ifndef FAIRJOB_TESTS_SUPPORT_METRICS_JSON_H_
#define FAIRJOB_TESTS_SUPPORT_METRICS_JSON_H_

#include <string>

namespace fairjob {

// The value `name` has in a MetricsRegistry::ToJson() document, or -1 when
// the document does not name it.
inline double ExportedValue(const std::string& json, const std::string& name) {
  const std::string needle = "\"" + name + "\": ";
  size_t at = json.find(needle);
  if (at == std::string::npos) return -1;
  return std::stod(json.substr(at + needle.size()));
}

}  // namespace fairjob

#endif  // FAIRJOB_TESTS_SUPPORT_METRICS_JSON_H_
