#include "sfp/control_plane.hpp"

#include <algorithm>

#include "net/checksum.hpp"
#include "net/headers.hpp"
#include "net/parser.hpp"

namespace flexsfp::sfp {

using namespace sim;  // time literals

std::vector<BootStep> default_boot_sequence() {
  return {
      {"transceiver-init", 2_ms},
      {"laser-driver-init", 1_ms},
      {"limiting-amplifier-init", 1_ms},
      {"table-load", 4_ms},
      {"csr-defaults", 100_us},
  };
}

sim::TimePs boot_duration(const std::vector<BootStep>& steps) {
  sim::TimePs total = 0;
  for (const auto& step : steps) total += step.duration;
  return total;
}

ControlPlane::ControlPlane(sim::Simulation& sim, ControlPlaneConfig config)
    : sim_(sim), config_(config) {}

void ControlPlane::handle_packet(net::PacketPtr packet) {
  const auto body = mgmt_body(*packet);
  if (!body) {
    // ActiveCp-terminated traffic: the CP participates in the data plane
    // (§4.1's third model). Currently it speaks ICMP echo.
    handle_terminated(*packet);
    return;
  }
  auto request = MgmtRequest::parse(*body);
  const auto eth = net::EthernetHeader::parse(packet->data(), 0);
  const net::MacAddress reply_to = eth ? eth->src : net::MacAddress{};
  if (!request) {
    respond(MgmtResponse{.seq = 0, .status = MgmtStatus::malformed, .value = 0, .payload = {}}, reply_to);
    return;
  }
  // The softcore takes op_latency to pick the request off its ring and
  // execute it.
  sim_.schedule_in(config_.op_latency_ps,
                   [this, request = std::move(*request), reply_to]() mutable {
                     execute(std::move(request), reply_to);
                   });
}

void ControlPlane::execute(MgmtRequest request, net::MacAddress reply_to) {
  if (!request.verify(config_.key)) {
    ++auth_failures_;
    respond(MgmtResponse{.seq = request.seq, .status = MgmtStatus::auth_failed, .value = 0, .payload = {}},
            reply_to);
    return;
  }
  respond(dispatch(request), reply_to);
}

MgmtResponse ControlPlane::dispatch(const MgmtRequest& request) {
  MgmtResponse response;
  response.seq = request.seq;

  ppe::PpeApp* app = app_provider_ ? app_provider_() : nullptr;

  switch (request.op) {
    case MgmtOp::ping:
      response.value = request.value;  // echo
      return response;

    case MgmtOp::table_insert:
      if (app == nullptr) {
        response.status = MgmtStatus::bad_state;
      } else if (!app->table_insert(request.table, request.key,
                                    request.value)) {
        const auto names = app->table_names();
        const bool known = std::find(names.begin(), names.end(),
                                     request.table) != names.end();
        response.status =
            known ? MgmtStatus::table_full : MgmtStatus::unknown_table;
      }
      return response;

    case MgmtOp::table_erase:
      if (app == nullptr) {
        response.status = MgmtStatus::bad_state;
      } else if (!app->table_erase(request.table, request.key)) {
        response.status = MgmtStatus::not_found;
      }
      return response;

    case MgmtOp::table_lookup: {
      if (app == nullptr) {
        response.status = MgmtStatus::bad_state;
        return response;
      }
      const auto hit = app->table_lookup(request.table, request.key);
      if (!hit) {
        response.status = MgmtStatus::not_found;
      } else {
        response.value = *hit;
      }
      return response;
    }

    case MgmtOp::counter_read: {
      if (app == nullptr) {
        response.status = MgmtStatus::bad_state;
        return response;
      }
      // key selects the snapshot index; payload returns packets|bytes.
      const auto snapshots = app->counters();
      if (request.key >= snapshots.size()) {
        response.status = MgmtStatus::not_found;
        return response;
      }
      const auto& snap = snapshots[static_cast<std::size_t>(request.key)];
      response.payload.resize(16);
      net::write_be64(response.payload, 0, snap.packets);
      net::write_be64(response.payload, 8, snap.bytes);
      response.value = snap.packets;
      return response;
    }

    case MgmtOp::reconfig_begin:
    case MgmtOp::reconfig_chunk:
    case MgmtOp::reconfig_commit:
    case MgmtOp::reconfig_abort:
      return handle_reconfig(request);
  }
  response.status = MgmtStatus::unknown_op;
  return response;
}

MgmtResponse ControlPlane::handle_reconfig(const MgmtRequest& request) {
  MgmtResponse response;
  response.seq = request.seq;

  switch (request.op) {
    case MgmtOp::reconfig_begin: {
      if (state_ != ReconfigState::idle) {
        response.status = MgmtStatus::bad_state;
        return response;
      }
      if (request.payload.size() < 2) {
        response.status = MgmtStatus::malformed;
        return response;
      }
      const std::size_t total_chunks = net::read_be16(request.payload, 0);
      if (total_chunks == 0 || total_chunks > config_.max_chunks) {
        response.status = MgmtStatus::malformed;
        return response;
      }
      chunks_.assign(total_chunks, {});
      chunks_seen_ = 0;
      state_ = ReconfigState::receiving;
      return response;
    }

    case MgmtOp::reconfig_chunk: {
      if (state_ != ReconfigState::receiving) {
        response.status = MgmtStatus::bad_state;
        return response;
      }
      if (request.payload.size() < 2) {
        response.status = MgmtStatus::malformed;
        return response;
      }
      const std::size_t index = net::read_be16(request.payload, 0);
      if (index >= chunks_.size()) {
        response.status = MgmtStatus::malformed;
        return response;
      }
      if (chunks_[index].empty()) ++chunks_seen_;  // retransmits are fine
      chunks_[index].assign(request.payload.begin() + 2,
                            request.payload.end());
      return response;
    }

    case MgmtOp::reconfig_commit: {
      if (state_ != ReconfigState::receiving ||
          chunks_seen_ != chunks_.size()) {
        response.status = MgmtStatus::bad_state;
        return response;
      }
      net::Bytes image;
      for (const auto& chunk : chunks_) {
        image.insert(image.end(), chunk.begin(), chunk.end());
      }
      const auto bitstream = hw::Bitstream::parse(image);
      if (!bitstream || !bitstream->verify(config_.key)) {
        // CRC or signature rejected: drop the staged data, stay usable.
        reconfig_reset();
        response.status = MgmtStatus::verify_failed;
        return response;
      }
      state_ = ReconfigState::staging;
      chunks_.clear();
      chunks_seen_ = 0;
      if (reconfig_sink_) reconfig_sink_(*bitstream);
      return response;
    }

    case MgmtOp::reconfig_abort:
      reconfig_reset();
      return response;

    default:
      response.status = MgmtStatus::unknown_op;
      return response;
  }
}

void ControlPlane::handle_terminated(const net::Packet& packet) {
  if (!config_.ip || !transmit_) return;
  const auto parsed = net::parse_packet(packet.data());
  if (!parsed.ok() || !parsed.outer.ipv4 || !parsed.outer.icmp) return;
  if (parsed.outer.ipv4->dst != *config_.ip) return;
  if (parsed.outer.icmp->type != 8) return;  // echo request only

  // Craft the reply in place on a copy: swap L2/L3 endpoints, flip the
  // ICMP type and patch both checksums.
  net::Bytes reply = packet.data();
  net::EthernetHeader eth = parsed.eth;
  std::swap(eth.dst, eth.src);
  eth.src = config_.mac;
  eth.serialize_to(reply, 0);

  const std::size_t l3 = parsed.outer.l3_offset;
  net::write_be32(reply, l3 + 12, parsed.outer.ipv4->dst.value());
  net::write_be32(reply, l3 + 16, parsed.outer.ipv4->src.value());
  // src/dst swap leaves the IPv4 header checksum unchanged (same words).

  const std::size_t l4 = parsed.outer.l4_offset;
  reply[l4] = 0;  // echo reply
  // Type changed from 8 to 0 in the high byte of the first ICMP word.
  const std::uint16_t old_word = static_cast<std::uint16_t>(
      (8 << 8) | parsed.outer.icmp->code);
  const std::uint16_t new_word = parsed.outer.icmp->code;
  const std::uint16_t patched = net::checksum_incremental_update(
      parsed.outer.icmp->checksum, old_word, new_word);
  net::write_be16(reply, l4 + 2, patched);

  ++pings_;
  auto frame = sim_.packet_pool().make(std::move(reply));
  sim_.schedule_in(config_.op_latency_ps,
                   [this, frame = std::move(frame)]() mutable {
                     transmit_(std::move(frame));
                   });
}

void ControlPlane::respond(const MgmtResponse& response,
                           net::MacAddress reply_to) {
  if (!transmit_) return;
  ++responses_;
  auto frame = sim_.packet_pool().make_from(
      make_mgmt_frame(reply_to, config_.mac, response.serialize()));
  transmit_(std::move(frame));
}

}  // namespace flexsfp::sfp
