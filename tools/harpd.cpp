// harpd — the HARP resource-manager daemon (§4.3, Fig. 4).
//
// A user-space system service, in the spirit of systemd/launchd: it loads
// the hardware description from a /etc/harp-style configuration directory,
// listens on a Unix socket for libharp registrations, and manages the
// registered applications' resources.
//
// Usage:
//   harpd --config <dir> [--socket <path>] [--verbose]
//   harpd --hardware raptor-lake|odroid-xu3e [--socket <path>]
//
// With --config, only <dir>/hardware.json is read; application profiles
// reach the RM from the clients themselves, which submit their operating
// points after registering.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <chrono>
#include <string>
#include <thread>

#include "src/common/logging.hpp"
#include "src/harp/config_dir.hpp"
#include "src/harp/rm_server.hpp"
#include "src/platform/hardware.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }

void usage() {
  std::fprintf(stderr,
               "usage: harpd (--config <dir> | --hardware raptor-lake|odroid-xu3e)\n"
               "             [--socket <path>] [--verbose]\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_dir;
  std::string hardware_name;
  std::string socket_path = "/tmp/harp.sock";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--config") {
      const char* v = next();
      if (v == nullptr) return usage(), 2;
      config_dir = v;
    } else if (arg == "--hardware") {
      const char* v = next();
      if (v == nullptr) return usage(), 2;
      hardware_name = v;
    } else if (arg == "--socket") {
      const char* v = next();
      if (v == nullptr) return usage(), 2;
      socket_path = v;
    } else if (arg == "--verbose") {
      harp::set_log_level(harp::LogLevel::kInfo);
    } else {
      usage();
      return 2;
    }
  }

  harp::platform::HardwareDescription hw;
  if (!config_dir.empty()) {
    harp::core::ConfigDirectory config(config_dir);
    auto loaded = config.load_hardware();
    if (!loaded.ok()) {
      std::fprintf(stderr, "harpd: cannot load %s: %s\n", config.hardware_path().c_str(),
                   loaded.error().message.c_str());
      return 1;
    }
    hw = std::move(loaded).take();
  } else if (hardware_name == "raptor-lake") {
    hw = harp::platform::raptor_lake();
  } else if (hardware_name == "odroid-xu3e") {
    hw = harp::platform::odroid_xu3e();
  } else {
    usage();
    return 2;
  }

  harp::core::RmServer rm(hw);
  if (harp::Status s = rm.listen(socket_path); !s.ok()) {
    std::fprintf(stderr, "harpd: %s\n", s.error().message.c_str());
    return 1;
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::printf("harpd: managing '%s' on %s (ctrl-c to stop)\n", hw.name.c_str(),
              socket_path.c_str());

  auto t0 = std::chrono::steady_clock::now();
  while (g_stop == 0) {
    double now =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    rm.poll(now);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::printf("harpd: shutting down (%zu clients)\n", rm.client_count());
  return 0;
}
