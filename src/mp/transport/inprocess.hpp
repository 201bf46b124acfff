// The default pacnet backend: ranks are threads of one process and a send
// is a push into the destination rank's Mailbox.  This is exactly the
// pre-transport minimpi data path, factored behind the Transport interface;
// it stays deterministic and virtual-time so every modeled figure remains
// byte-identical.
#pragma once

#include <vector>

#include "mp/transport/transport.hpp"

namespace pac::mp::transport {

class InProcessTransport final : public Transport {
 public:
  /// `boxes[r]` is world rank r's mailbox; `rank` is the owning rank (the
  /// only rank allowed to call recv on this instance).
  InProcessTransport(std::vector<Mailbox*> boxes, int rank)
      : boxes_(std::move(boxes)), rank_(rank) {}

  const char* name() const noexcept override { return "in-process"; }
  int world_rank() const noexcept override { return rank_; }
  int world_size() const noexcept override {
    return static_cast<int>(boxes_.size());
  }

  void send(int dest_world_rank, Message msg) override {
    boxes_[static_cast<std::size_t>(dest_world_rank)]->push(std::move(msg));
  }

  Message recv(int context, int source_world_rank, int tag) override {
    return inbox().pop(context, source_world_rank, tag);
  }

 private:
  Mailbox& inbox() { return *boxes_[static_cast<std::size_t>(rank_)]; }

  std::vector<Mailbox*> boxes_;
  int rank_;
};

}  // namespace pac::mp::transport
