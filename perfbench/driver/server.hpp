// The server under test: a `mcbound serve` child process with pinned
// flags, and the /metrics parsing the driver does outside the measured
// load (its blocking calls go through mcb::http_request).
#pragma once

#include <sys/types.h>

#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// A port nobody listens on right now (bind to 0, read it back, close).
int free_port();

class ServerProcess {
 public:
  /// Spawns `binary args...` with stdout and stderr appended to `log_path`.
  ServerProcess(const std::string& binary, const std::vector<std::string>& args,
                const std::string& log_path);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const noexcept { return pid_; }
  bool running();

  /// Peak resident set (VmHWM) in MB; NaN when /proc has no entry.
  double peak_rss_mb() const;

  /// User + system CPU seconds the process has used so far; NaN when
  /// /proc has no entry.
  double cpu_s() const;

  /// SIGTERM, then SIGKILL after `grace_ms`; always reaps the child.
  void stop(int grace_ms = 3000);

 private:
  pid_t pid_ = -1;
};

/// Polls until the port accepts connections or `timeout_ms` passes.
bool wait_listening(int port, int timeout_ms, ServerProcess& server);

/// Prometheus text exposition -> {"name{labels}": value}.
using Scrape = std::map<std::string, double>;
Scrape parse_prometheus(const std::string& text);

/// after[key] - before[key] (missing keys read as 0).
double scrape_delta(const Scrape& before, const Scrape& after, const std::string& key);

}  // namespace perfbench
