#include "attic/backup.hpp"

#include <cstdio>

#include "telemetry/trace.hpp"
#include "util/encoding.hpp"
#include "util/logging.hpp"

namespace hpop::attic {

namespace {
/// HMAC(key, nonce || counter) expanded into a keystream.
util::Bytes keystream(const util::Bytes& key, std::uint64_t nonce,
                      std::size_t length) {
  util::Bytes stream;
  stream.reserve(length + 32);
  std::uint64_t counter = 0;
  while (stream.size() < length) {
    char block_input[48];
    std::snprintf(block_input, sizeof block_input, "ks:%llu:%llu",
                  static_cast<unsigned long long>(nonce),
                  static_cast<unsigned long long>(counter++));
    const util::Digest block =
        util::hmac_sha256(key, std::string_view(block_input));
    stream.insert(stream.end(), block.begin(), block.end());
  }
  stream.resize(length);
  return stream;
}
}  // namespace

Sealed seal(const util::Bytes& key, const util::Bytes& plaintext,
            std::uint64_t nonce) {
  Sealed box;
  box.nonce = nonce;
  const util::Bytes stream = keystream(key, nonce, plaintext.size());
  box.ciphertext.resize(plaintext.size());
  for (std::size_t i = 0; i < plaintext.size(); ++i) {
    box.ciphertext[i] = plaintext[i] ^ stream[i];
  }
  util::Bytes mac_input = box.ciphertext;
  const std::string nonce_str = "|" + std::to_string(nonce);
  mac_input.insert(mac_input.end(), nonce_str.begin(), nonce_str.end());
  box.mac = util::hmac_sha256(key, mac_input);
  return box;
}

util::Result<util::Bytes> unseal(const util::Bytes& key, const Sealed& box) {
  util::Bytes mac_input = box.ciphertext;
  const std::string nonce_str = "|" + std::to_string(box.nonce);
  mac_input.insert(mac_input.end(), nonce_str.begin(), nonce_str.end());
  if (!util::digest_equal(box.mac, util::hmac_sha256(key, mac_input))) {
    return util::Result<util::Bytes>::failure("tampered",
                                              "backup MAC mismatch");
  }
  const util::Bytes stream = keystream(key, box.nonce, box.ciphertext.size());
  util::Bytes plaintext(box.ciphertext.size());
  for (std::size_t i = 0; i < plaintext.size(); ++i) {
    plaintext[i] = box.ciphertext[i] ^ stream[i];
  }
  return plaintext;
}

void BackupManager::add_peer(net::Endpoint endpoint,
                             const std::string& capability) {
  Peer peer;
  peer.endpoint = endpoint;
  peer.client = std::make_unique<AtticClient>(http_, endpoint, capability);
  peers_.push_back(std::move(peer));
}

std::string BackupManager::shard_path(const std::string& file_key,
                                      int index) const {
  return "/backup/" + owner_ + "/" + file_key + "/shard-" +
         std::to_string(index);
}

void BackupManager::backup(const std::string& file_key,
                           const http::Body& content, Strategy strategy,
                           int k, int m, BackupCallback cb) {
  if (strategy == Strategy::kReplication) k = 1;
  const int total = k + m;
  if (static_cast<std::size_t>(total) > peers_.size()) {
    cb(util::Status::failure("not_enough_peers",
                             "need " + std::to_string(total) + " peers"));
    return;
  }

  ManifestEntry entry;
  entry.strategy = strategy;
  entry.k = k;
  entry.m = m;
  entry.original_size = content.size();
  entry.synthetic = !content.is_real();
  entry.synthetic_tag = content.tag();
  entry.nonce = next_nonce_++;
  entry.content_digest = content.digest();

  // Build shard bodies. Real content is encrypted then erasure-coded (or
  // replicated); synthetic bulk keeps its network/storage footprint via
  // synthetic slices — the transfer and availability behaviour under
  // study — while the manifest digest stands in for decodability.
  std::vector<http::Body> shard_bodies;
  if (content.is_real()) {
    const Sealed box = seal(key_, content.bytes(), entry.nonce);
    util::Bytes sealed_bytes = box.ciphertext;
    const std::string trailer =
        "|" + std::to_string(box.nonce) + "|" +
        util::digest_hex(box.mac);
    sealed_bytes.insert(sealed_bytes.end(), trailer.begin(), trailer.end());
    if (strategy == Strategy::kReplication) {
      for (int i = 0; i < total; ++i) {
        shard_bodies.emplace_back(sealed_bytes);
      }
    } else {
      const util::ReedSolomon rs(k, m);
      for (auto& shard : rs.encode(sealed_bytes)) {
        shard_bodies.emplace_back(std::move(shard));
      }
    }
  } else {
    const std::size_t shard_size =
        strategy == Strategy::kReplication
            ? content.size()
            : (content.size() + static_cast<std::size_t>(k) - 1) /
                  static_cast<std::size_t>(k);
    for (int i = 0; i < total; ++i) {
      shard_bodies.push_back(http::Body::synthetic(
          shard_size, entry.synthetic_tag ^ (0xABCDull * (i + 1))));
    }
  }

  for (const http::Body& b : shard_bodies) {
    entry.shard_digests.push_back(b.digest());
  }

  // Round-robin placement across distinct peers.
  auto remaining = std::make_shared<int>(total);
  auto failed = std::make_shared<int>(0);
  for (int i = 0; i < total; ++i) {
    const int peer_index =
        static_cast<int>((next_peer_ + static_cast<std::size_t>(i)) %
                         peers_.size());
    entry.placement.push_back(peer_index);
    ++stats_.shards_written;
    m_shards_written_->inc();
    peers_[static_cast<std::size_t>(peer_index)].client->put(
        shard_path(file_key, i), shard_bodies[static_cast<std::size_t>(i)],
        [this, remaining, failed, cb](util::Result<std::string> etag) {
          if (!etag.ok()) {
            ++*failed;
            ++stats_.shard_write_failures;
            m_shard_write_failures_->inc();
          }
          if (--*remaining == 0) {
            cb(*failed == 0 ? util::Status::success()
                            : util::Status::failure(
                                  "partial",
                                  std::to_string(*failed) +
                                      " shard writes failed"));
          }
        });
  }
  next_peer_ = (next_peer_ + static_cast<std::size_t>(total)) % peers_.size();
  manifest_[file_key] = std::move(entry);
}

void BackupManager::restore(const std::string& file_key, RestoreCallback cb) {
  const auto it = manifest_.find(file_key);
  if (it == manifest_.end()) {
    cb(util::Result<http::Body>::failure("not_found", "no manifest entry"));
    return;
  }
  const ManifestEntry& entry = it->second;
  const int total = entry.k + entry.m;

  struct Gather {
    std::vector<std::optional<util::Bytes>> shards;
    int outstanding;
    int have = 0;
    bool done = false;
  };
  auto gather = std::make_shared<Gather>();
  gather->shards.resize(static_cast<std::size_t>(total));
  gather->outstanding = total;

  auto finish = [this, entry, cb, gather](bool enough) {
    if (gather->done) return;
    if (!enough && gather->outstanding > 0) return;
    gather->done = true;
    if (gather->have < entry.k) {
      ++stats_.restores_failed;
      m_restores_failed_->inc();
      cb(util::Result<http::Body>::failure(
          "insufficient_shards",
          "only " + std::to_string(gather->have) + " of " +
              std::to_string(entry.k) + " shards reachable"));
      return;
    }
    if (entry.strategy == Strategy::kErasure &&
        gather->have < entry.k + entry.m) {
      // Enough shards to decode, but some were lost: the restore is also a
      // repair (RS reconstruction of the missing shards' data).
      m_erasure_repairs_->inc();
      telemetry::tracer().emit(telemetry::TraceEvent::kAtticErasureRepair,
                               gather->have, entry.k + entry.m);
    }
    if (entry.synthetic) {
      ++stats_.restores_ok;
      m_restores_ok_->inc();
      cb(http::Body::synthetic(entry.original_size, entry.synthetic_tag));
      return;
    }
    // Reassemble the sealed byte stream.
    util::Bytes sealed_bytes;
    if (entry.strategy == Strategy::kReplication) {
      for (const auto& s : gather->shards) {
        if (s) {
          sealed_bytes = *s;
          break;
        }
      }
    } else {
      const util::ReedSolomon rs(entry.k, entry.m);
      // Sealed length = ciphertext + trailer; recorded via the shard sizes:
      // decode() needs the original (pre-padding) size, which we recover
      // from the trailer after a size-free decode of k*shard_len bytes.
      std::size_t shard_len = 0;
      for (const auto& s : gather->shards) {
        if (s) shard_len = s->size();
      }
      const auto decoded = rs.decode(
          gather->shards,
          shard_len * static_cast<std::size_t>(entry.k));
      if (!decoded.ok()) {
        ++stats_.restores_failed;
        m_restores_failed_->inc();
        cb(util::Result<http::Body>(decoded.error()));
        return;
      }
      sealed_bytes = decoded.value();
    }
    // Split trailer: ciphertext | nonce | mac-hex.
    const auto last_bar = std::string(sealed_bytes.begin(), sealed_bytes.end())
                              .rfind('|');
    // Parse from the back: ...|nonce|machex — machex is 64 chars.
    const std::string as_text(sealed_bytes.begin(), sealed_bytes.end());
    const auto mac_bar = as_text.rfind('|');
    const auto nonce_bar = as_text.rfind('|', mac_bar - 1);
    (void)last_bar;
    if (mac_bar == std::string::npos || nonce_bar == std::string::npos) {
      ++stats_.restores_failed;
      m_restores_failed_->inc();
      cb(util::Result<http::Body>::failure("corrupt", "missing trailer"));
      return;
    }
    Sealed box;
    box.ciphertext.assign(sealed_bytes.begin(),
                          sealed_bytes.begin() +
                              static_cast<std::ptrdiff_t>(nonce_bar));
    box.nonce = std::strtoull(
        as_text.substr(nonce_bar + 1, mac_bar - nonce_bar - 1).c_str(),
        nullptr, 10);
    const auto mac_bytes = util::hex_decode(
        as_text.substr(mac_bar + 1, 64));
    if (!mac_bytes.ok() || mac_bytes.value().size() != box.mac.size()) {
      ++stats_.restores_failed;
      m_restores_failed_->inc();
      cb(util::Result<http::Body>::failure("corrupt", "bad trailer mac"));
      return;
    }
    std::copy(mac_bytes.value().begin(), mac_bytes.value().end(),
              box.mac.begin());
    auto plaintext = unseal(key_, box);
    if (!plaintext.ok()) {
      ++stats_.restores_failed;
      m_restores_failed_->inc();
      cb(util::Result<http::Body>(plaintext.error()));
      return;
    }
    http::Body body(std::move(plaintext).take());
    if (!util::digest_equal(body.digest(), entry.content_digest)) {
      ++stats_.restores_failed;
      m_restores_failed_->inc();
      cb(util::Result<http::Body>::failure("corrupt", "digest mismatch"));
      return;
    }
    ++stats_.restores_ok;
    m_restores_ok_->inc();
    cb(std::move(body));
  };

  for (int i = 0; i < total; ++i) {
    const int peer_index = entry.placement[static_cast<std::size_t>(i)];
    peers_[static_cast<std::size_t>(peer_index)].client->get(
        shard_path(file_key, i),
        [i, entry, gather, finish](util::Result<AtticClient::File> file) {
          --gather->outstanding;
          const auto idx = static_cast<std::size_t>(i);
          // A shard whose digest mismatches the manifest is corrupt: treat
          // it exactly like a lost shard so RS reconstruction handles it.
          if (file.ok() &&
              (idx >= entry.shard_digests.size() ||
               util::digest_equal(file.value().content.digest(),
                                  entry.shard_digests[idx]))) {
            if (entry.synthetic) {
              gather->shards[idx] = util::Bytes{};
            } else if (file.value().content.is_real()) {
              gather->shards[idx] = file.value().content.bytes();
            }
            if (gather->shards[idx]) {
              ++gather->have;
            }
          }
          finish(gather->have >= entry.k);
        });
  }
}

namespace {
bool transport_failure(const util::Error& error) {
  return error.code == "timeout" || error.code == "connection_failed";
}
}  // namespace

void BackupManager::probe_peers(ProbeCallback cb) {
  const std::size_t n = peers_.size();
  if (n == 0) {
    cb({});
    return;
  }
  auto alive = std::make_shared<std::vector<bool>>(n, false);
  auto outstanding = std::make_shared<std::size_t>(n);
  for (std::size_t i = 0; i < n; ++i) {
    peers_[i].client->list(
        "/backup/" + owner_,
        [i, alive, outstanding,
         cb](util::Result<std::vector<std::string>> r) {
          (*alive)[i] = r.ok() || !transport_failure(r.error());
          if (--*outstanding == 0) cb(std::move(*alive));
        });
  }
}

void BackupManager::backup_session(const std::string& key, durable::Wal& wal,
                                   const SessionConfig& config,
                                   SessionCallback cb) {
  SessionState& state = sessions_[key];
  const std::uint64_t session = state.next++;
  // Close the current epoch first: everything appended from here on
  // belongs to the next session, so the boundary is race-free even if the
  // service keeps writing while shards are in flight.
  const std::uint64_t boundary = wal.epoch();
  wal.advance_epoch();

  util::Bytes payload;
  bool full = config.full_every > 0 &&
              session % static_cast<std::uint64_t>(config.full_every) == 0;
  if (!full && !wal.collect_since(state.base_epoch, payload)) {
    // The WAL was compacted past our last boundary: the delta chain no
    // longer exists on disk, so this session must ship a full image.
    full = true;
  }
  if (full) payload = wal.durable_image();

  const std::string piece =
      key + (full ? "/full-" : "/delta-") + std::to_string(session);
  SessionInfo info;
  info.session = session;
  info.full = full;
  info.payload_bytes = payload.size();
  info.epoch = boundary;

  ++session_stats_.sessions;
  if (full) {
    ++session_stats_.full_sessions;
    session_stats_.full_bytes += payload.size();
    state.pieces.clear();
  } else {
    ++session_stats_.delta_sessions;
    session_stats_.delta_bytes += payload.size();
  }
  state.base_epoch = boundary;

  if (payload.empty() && !full) {
    // Nothing changed since the last session: record it, ship nothing.
    cb(info);
    return;
  }
  state.pieces.push_back(piece);
  backup(piece, http::Body(std::move(payload)), config.strategy, config.k,
         config.m, [info, cb](util::Status status) {
           if (!status.ok()) {
             cb(util::Result<SessionInfo>::failure(status.error().code,
                                                   status.error().message));
             return;
           }
           cb(info);
         });
}

void BackupManager::restore_session(const std::string& key, ImageCallback cb) {
  const auto it = sessions_.find(key);
  if (it == sessions_.end() || it->second.pieces.empty()) {
    cb(util::Result<util::Bytes>::failure("not_found",
                                          "no backup sessions for " + key));
    return;
  }
  // Restore pieces strictly in chain order (full first, then each delta):
  // the concatenation is a single WAL image whose records replay in the
  // exact order the home device persisted them.
  struct Chain {
    std::vector<std::string> pieces;
    std::size_t index = 0;
    util::Bytes image;
  };
  auto chain = std::make_shared<Chain>();
  chain->pieces = it->second.pieces;
  // Each step hands a copy of itself to the next piece's callback, so the
  // chain is owned by whichever restore is in flight and freed after the
  // last one.
  const auto step = [this, chain, cb](const auto& self) -> void {
    if (chain->index == chain->pieces.size()) {
      cb(std::move(chain->image));
      return;
    }
    const std::string piece = chain->pieces[chain->index++];
    restore(piece, [chain, cb, self](util::Result<http::Body> body) {
      if (!body.ok()) {
        cb(util::Result<util::Bytes>(body.error()));
        return;
      }
      const util::Bytes& bytes = body.value().bytes();
      chain->image.insert(chain->image.end(), bytes.begin(), bytes.end());
      self(self);
    });
  };
  step(step);
}

void BackupManager::check_and_repair(const std::string& file_key,
                                     RepairCallback cb) {
  const auto it = manifest_.find(file_key);
  if (it == manifest_.end()) {
    cb(util::Result<RepairReport>::failure("not_found", "no manifest entry"));
    return;
  }
  const int total = it->second.k + it->second.m;
  const bool synthetic = it->second.synthetic;

  struct Audit {
    std::vector<std::optional<util::Bytes>> shards;
    std::vector<bool> present;
    /// By shard index: the holding peer answered at all (a lost shard on a
    /// live peer is repaired in place; a dead peer forces relocation).
    std::vector<bool> holder_answered;
    int outstanding = 0;
  };
  auto audit = std::make_shared<Audit>();
  audit->shards.resize(static_cast<std::size_t>(total));
  audit->present.assign(static_cast<std::size_t>(total), false);
  audit->holder_answered.assign(static_cast<std::size_t>(total), false);
  audit->outstanding = total;

  auto finish = [this, file_key, audit, cb] {
    ManifestEntry& entry = manifest_[file_key];
    const int total = entry.k + entry.m;
    RepairReport report;
    report.shards_checked = total;
    std::vector<int> missing;
    for (int i = 0; i < total; ++i) {
      if (!audit->present[static_cast<std::size_t>(i)]) missing.push_back(i);
    }
    report.shards_missing = static_cast<int>(missing.size());
    if (missing.empty()) {
      cb(report);
      return;
    }
    if (total - report.shards_missing < entry.k) {
      cb(util::Result<RepairReport>::failure(
          "insufficient_shards",
          "only " + std::to_string(total - report.shards_missing) + " of " +
              std::to_string(entry.k) + " shards reachable"));
      return;
    }

    // Rebuild the missing shard bodies from the survivors.
    std::vector<http::Body> bodies(static_cast<std::size_t>(total));
    if (entry.synthetic) {
      const std::size_t shard_size =
          entry.strategy == Strategy::kReplication
              ? entry.original_size
              : (entry.original_size + static_cast<std::size_t>(entry.k) - 1) /
                    static_cast<std::size_t>(entry.k);
      for (const int i : missing) {
        bodies[static_cast<std::size_t>(i)] = http::Body::synthetic(
            shard_size, entry.synthetic_tag ^ (0xABCDull * (i + 1)));
      }
    } else if (entry.strategy == Strategy::kReplication) {
      for (int i = 0; i < total; ++i) {
        if (!audit->present[static_cast<std::size_t>(i)]) continue;
        for (const int j : missing) {
          bodies[static_cast<std::size_t>(j)] =
              http::Body(*audit->shards[static_cast<std::size_t>(i)]);
        }
        break;
      }
    } else {
      std::size_t shard_len = 0;
      for (const auto& s : audit->shards) {
        if (s) shard_len = s->size();
      }
      const util::ReedSolomon rs(entry.k, entry.m);
      const auto decoded = rs.decode(
          audit->shards, shard_len * static_cast<std::size_t>(entry.k));
      if (!decoded.ok()) {
        cb(util::Result<RepairReport>(decoded.error()));
        return;
      }
      auto reencoded = rs.encode(decoded.value());
      for (const int i : missing) {
        bodies[static_cast<std::size_t>(i)] =
            http::Body(std::move(reencoded[static_cast<std::size_t>(i)]));
      }
    }

    // Pick a target for each missing shard: the original holder when it is
    // merely missing the object, otherwise the least-loaded peer that is
    // not known-dead. (Peers holding nothing of this file were not probed
    // here; the put itself is the liveness test for those.)
    std::vector<bool> peer_down(peers_.size(), false);
    std::vector<int> load(peers_.size(), 0);
    for (int i = 0; i < total; ++i) {
      const auto p =
          static_cast<std::size_t>(entry.placement[static_cast<std::size_t>(i)]);
      if (!audit->holder_answered[static_cast<std::size_t>(i)]) {
        peer_down[p] = true;
      }
      if (audit->present[static_cast<std::size_t>(i)]) ++load[p];
    }
    for (const int i : missing) {
      auto target = static_cast<std::size_t>(
          entry.placement[static_cast<std::size_t>(i)]);
      if (peer_down[target]) {
        int best = -1;
        for (std::size_t p = 0; p < peers_.size(); ++p) {
          if (peer_down[p]) continue;
          if (best < 0 || load[p] < load[static_cast<std::size_t>(best)]) {
            best = static_cast<int>(p);
          }
        }
        if (best >= 0) {
          target = static_cast<std::size_t>(best);
          entry.placement[static_cast<std::size_t>(i)] = best;
          ++report.placements_moved;
        }
      }
      ++load[target];
    }

    auto remaining = std::make_shared<int>(static_cast<int>(missing.size()));
    auto rep = std::make_shared<RepairReport>(report);
    for (const int i : missing) {
      const auto target = static_cast<std::size_t>(
          entry.placement[static_cast<std::size_t>(i)]);
      peers_[target].client->put(
          shard_path(file_key, i), bodies[static_cast<std::size_t>(i)],
          [this, remaining, rep, cb](util::Result<std::string> etag) {
            if (etag.ok()) {
              ++rep->shards_repaired;
              ++stats_.shards_repaired;
              m_shards_repaired_->inc();
            }
            if (--*remaining == 0) {
              m_erasure_repairs_->inc();
              telemetry::tracer().emit(
                  telemetry::TraceEvent::kAtticErasureRepair,
                  rep->shards_repaired, rep->shards_missing, "proactive");
              cb(*rep);
            }
          });
    }
  };

  for (int i = 0; i < total; ++i) {
    const auto peer_index = static_cast<std::size_t>(
        it->second.placement[static_cast<std::size_t>(i)]);
    peers_[peer_index].client->get(
        shard_path(file_key, i),
        [i, synthetic, entry = it->second, audit,
         finish](util::Result<AtticClient::File> file) {
          const auto idx = static_cast<std::size_t>(i);
          if (file.ok()) {
            audit->holder_answered[idx] = true;
            const bool intact =
                idx >= entry.shard_digests.size() ||
                util::digest_equal(file.value().content.digest(),
                                   entry.shard_digests[idx]);
            // A corrupted shard on a live peer audits as missing-but-
            // repairable-in-place: reconstructed from survivors and
            // rewritten over the bad copy.
            if (!intact) {
            } else if (synthetic) {
              audit->shards[idx] = util::Bytes{};
              audit->present[idx] = true;
            } else if (file.value().content.is_real()) {
              audit->shards[idx] = file.value().content.bytes();
              audit->present[idx] = true;
            }
          } else {
            audit->holder_answered[idx] = !transport_failure(file.error());
          }
          if (--audit->outstanding == 0) finish();
        });
  }
}

}  // namespace hpop::attic
