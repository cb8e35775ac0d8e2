#pragma once

/// \file client.hpp
/// Client library for the ebct_serve daemon. Input is pulled from a reader
/// callback and output pushed to a writer callback, so arbitrarily large
/// payloads stream through in constant memory (the CLI wires these
/// straight to stdin/stdout).
///
/// The transfer runs as a poll-based duplex pump: the socket is
/// non-blocking and the client services reads and writes in one loop, so a
/// server blocked writing output can never deadlock against a client
/// blocked writing input — the failure mode a naive write-all-then-read
/// client hits as soon as a payload exceeds the socket buffers. OPEN goes
/// out ahead of the first DATA frame without waiting for OPEN_OK; the pump
/// reads the server's verdict (OPEN_OK, or an ERROR) as it streams.
///
/// A Client keeps its connection, with its buffers, after a request ends
/// in DONE and sends the next request on it. A kept connection that the
/// server has since closed (stop(), restart) is noticed before use and
/// replaced; any failure closes the connection. Threads may share one
/// Client: each request takes the kept connection or opens its own.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "serve/protocol.hpp"

namespace ebct::serve {

/// Pull up to `cap` input bytes into `buf`; return the count, 0 at EOF.
using PullReader = std::function<std::size_t(std::uint8_t* buf, std::size_t cap)>;

/// Receive output bytes (valid only for the call).
using PushWriter = std::function<void(const std::uint8_t* data, std::size_t n)>;

struct TransferStats {
  std::uint64_t bytes_in = 0;   ///< payload bytes the server received
  std::uint64_t bytes_out = 0;  ///< payload bytes the server sent
  std::uint32_t window_elems = 0;  ///< window in force (encode requests)
};

class Client {
 public:
  explicit Client(std::string socket_path);
  ~Client();

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Stream an encode request: float32 bytes from `reader`, EBCS container
  /// bytes to `writer`. Throws ServerError on server-reported failures
  /// (429 budget, 404 spec, ...), std::runtime_error on transport errors.
  TransferStats encode(const std::string& tenant, const std::string& spec,
                       std::size_t window_elems, const PullReader& reader,
                       const PushWriter& writer);

  /// Stream a decode request: EBCS container bytes in, float32 bytes out.
  TransferStats decode(const std::string& tenant, const PullReader& reader,
                       const PushWriter& writer);

  /// Whole-buffer conveniences (tests, small payloads).
  std::vector<std::uint8_t> encode_bytes(const std::string& tenant, const std::string& spec,
                                         std::size_t window_elems,
                                         const std::vector<std::uint8_t>& raw);
  std::vector<std::uint8_t> decode_bytes(const std::string& tenant,
                                         const std::vector<std::uint8_t>& container);

  const std::string& socket_path() const { return socket_path_; }

  /// I/O granularity of the pump (bytes pulled per reader call).
  static constexpr std::size_t kIoChunk = 256 * 1024;

 private:
  struct Connection;  ///< a socket plus its send/receive buffers

  TransferStats run(const OpenRequest& open, const PullReader& reader,
                    const PushWriter& writer);
  std::unique_ptr<Connection> take_connection();
  void keep_connection(std::unique_ptr<Connection> conn);
  static TransferStats transfer(Connection& conn, const OpenRequest& open,
                                const PullReader& reader, const PushWriter& writer);

  std::string socket_path_;
  std::atomic<Connection*> idle_{nullptr};  ///< owned; kept after a clean DONE
};

}  // namespace ebct::serve
