#include "server/server.h"

#include <utility>

#include "net/socket.h"
#include "server/reactor.h"
#include "server/router.h"

namespace scube {
namespace server {

ScubedServer::ScubedServer(query::QueryBackend* backend,
                           ServerOptions options)
    : backend_(backend),
      options_(std::move(options)),
      slow_log_(options_.slow_query_ms, options_.slow_query_sink) {}

ScubedServer::~ScubedServer() { Stop(); }

uint16_t ScubedServer::port() const {
  return reactor_ ? reactor_->port() : 0;
}

Status ScubedServer::Start() {
  if (running_) return Status::FailedPrecondition("server already started");
  auto listener = net::ListenSocket::Bind(options_.port,
                                          options_.loopback_only);
  if (!listener.ok()) return listener.status();
  reactor_ = std::make_unique<Reactor>(
      RouterContext{backend_, &metrics_, &slow_log_, options_.trace_all},
      &metrics_, options_);
  Status s = reactor_->Start(std::move(listener).value());
  if (!s.ok()) {
    reactor_.reset();
    return s;
  }
  running_ = true;
  return Status::OK();
}

void ScubedServer::Stop() {
  if (!running_) return;
  running_ = false;
  reactor_->Stop();
}

}  // namespace server
}  // namespace scube
