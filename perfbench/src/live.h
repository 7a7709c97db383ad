// A CongestionService behind a TcpDaemon on a loopback port: the live
// daemon the serve workloads talk to. Opening it, then connecting a client,
// is the serve workloads' set-up: service start, WAL recovery, listen and
// connect.
#pragma once

#include <memory>
#include <string>
#include <thread>

#include "common.h"
#include "serve/daemon.h"
#include "serve/service.h"
#include "trace.h"

namespace perfbench {

// The serve workloads' service: kServeShards shards and, when `wal_dir` is
// not empty, a WAL there with the default day-close fsync.
inline manic::serve::ServiceConfig ServeConfig(const std::string& wal_dir,
                                               int shards = kServeShards) {
  manic::serve::ServiceConfig config;
  config.shards = shards;
  config.wal_dir = wal_dir;
  config.wal_fsync = manic::serve::WalFsync::kDayClose;
  return config;
}

class LiveDaemon {
 public:
  LiveDaemon() = default;
  ~LiveDaemon() { Close(); }
  LiveDaemon(const LiveDaemon&) = delete;
  LiveDaemon& operator=(const LiveDaemon&) = delete;

  // False (with *error set) when recovery or listen fails.
  bool Open(const manic::serve::ServiceConfig& config, Tracer* tracer,
            std::uint64_t op, std::string* error) {
    service_ = std::make_unique<manic::serve::CongestionService>(config);
    {
      Scope span(tracer, "service.Start", op);
      service_->Start();
    }
    {
      Scope span(tracer, "service.RecoverFromWal", op);
      recover_ = service_->RecoverFromWal();
    }
    if (!recover_.ok) {
      *error = "wal recovery failed: " + recover_.error;
      return false;
    }
    daemon_ = std::make_unique<manic::serve::TcpDaemon>(service_.get());
    {
      Scope span(tracer, "daemon.Listen", op);
      if (!daemon_->Listen(0)) {
        *error = "cannot bind a loopback port";
        return false;
      }
    }
    loop_ = std::thread([this] { daemon_->Run(); });
    return true;
  }

  // Stops the event loop; the service stays for read-out. Close clients
  // first.
  void Close() {
    if (loop_.joinable()) {
      daemon_->Shutdown();
      loop_.join();
    }
  }

  manic::serve::CongestionService& service() { return *service_; }
  std::uint16_t port() const { return daemon_->port(); }
  const manic::serve::WalRecoverStats& recover_stats() const { return recover_; }

 private:
  std::unique_ptr<manic::serve::CongestionService> service_;
  std::unique_ptr<manic::serve::TcpDaemon> daemon_;
  std::thread loop_;
  manic::serve::WalRecoverStats recover_;
};

}  // namespace perfbench
