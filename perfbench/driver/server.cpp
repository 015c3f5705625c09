#include "server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "serve/server.hpp"

namespace perfbench {

int free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot pick a free port");
  }
  ::close(fd);
  return ntohs(addr.sin_port);
}

ServerProcess::ServerProcess(const std::string& binary, const std::vector<std::string>& args,
                             const std::string& log_path) {
  std::vector<std::string> argv_storage;
  argv_storage.push_back(binary);
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) throw std::runtime_error("cannot open " + log_path);
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(log_fd);
    throw std::runtime_error("fork() failed");
  }
  if (pid_ == 0) {
    // `mcbound serve` never exits by itself: if the driver dies, so does it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(log_fd);
}

ServerProcess::~ServerProcess() { stop(); }

bool ServerProcess::running() {
  if (pid_ <= 0) return false;
  int status = 0;
  const pid_t got = ::waitpid(pid_, &status, WNOHANG);
  if (got == pid_) {
    pid_ = -1;
    return false;
  }
  return true;
}

double ServerProcess::peak_rss_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

double ServerProcess::cpu_s() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat;
  if (!std::getline(in, stat)) return std::numeric_limits<double>::quiet_NaN();
  // Fields after the parenthesised command name: state is field 3,
  // utime and stime are fields 14 and 15, in clock ticks.
  std::istringstream fields(stat.substr(stat.rfind(')') + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

void ServerProcess::stop(int grace_ms) {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(grace_ms);
  int status = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
}

bool wait_listening(int port, int timeout_ms, ServerProcess& server) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (!server.running()) return false;
    int status = 0;
    std::string body;
    if (mcb::http_request(port, "GET", "/healthz", "", status, body) && status == 200) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

Scrape parse_prometheus(const std::string& text) {
  Scrape out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

double scrape_delta(const Scrape& before, const Scrape& after, const std::string& key) {
  const auto value = [&key](const Scrape& scrape) {
    const auto it = scrape.find(key);
    return it == scrape.end() ? 0.0 : it->second;
  };
  return value(after) - value(before);
}

}  // namespace perfbench
