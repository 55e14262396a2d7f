#include "fingerprint.hpp"

#include <sys/utsname.h>

#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {
namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos)
        return line.substr(line.find_first_not_of(" \t", colon + 1));
    }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

std::string machine_fingerprint_json() {
  struct utsname u {};
  std::string kernel = "unknown";
  if (::uname(&u) == 0) kernel = std::string(u.sysname) + " " + u.release;
  std::ostringstream os;
  os << "{\"cpu_model\": \"" << json_escape(cpu_model()) << "\", \"nproc\": "
     << std::thread::hardware_concurrency() << ", \"kernel\": \""
     << json_escape(kernel) << "\", \"compiler\": \""
#if defined(__clang__)
     << "clang " << json_escape(__clang_version__)
#elif defined(__GNUC__)
     << "gcc " << json_escape(__VERSION__)
#else
     << "unknown"
#endif
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"prism_obs\": " << (PRISM_OBS_ENABLED ? "true" : "false")
     << "}";
  return os.str();
}

}  // namespace perfbench
