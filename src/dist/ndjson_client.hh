/**
 * @file
 * Client side of the wivliw_serve NDJSON protocol over a
 * unix-domain socket: connect, write one JSON object per line,
 * read lines back. wivliw_load and perfbench's serve workload drive
 * the daemon through it.
 *
 * Error model: every call is non-throwing; a dead or hung-up
 * daemon turns into a failed send/recv, and retrying is the
 * caller's decision — the transport deliberately has no retry
 * logic of its own.
 */

#ifndef WIVLIW_DIST_NDJSON_CLIENT_HH
#define WIVLIW_DIST_NDJSON_CLIENT_HH

#include <cstdio>
#include <deque>
#include <optional>
#include <string>

#include "support/json.hh"

namespace vliw::dist {

/** One connected NDJSON conversation with a wivliw_serve daemon. */
class NdjsonClient
{
  public:
    NdjsonClient() = default;
    ~NdjsonClient() { close(); }

    NdjsonClient(const NdjsonClient &) = delete;
    NdjsonClient &operator=(const NdjsonClient &) = delete;

    /**
     * Connect to the unix socket at @p path. False on failure
     * (daemon not up yet, path wrong); the client stays closed
     * and reusable for another attempt.
     *
     * @p recvTimeoutMs > 0 arms a per-attempt transport timeout
     * (SO_RCVTIMEO/SO_SNDTIMEO): a single blocking read or write
     * stuck longer than this fails the call, which callers treat
     * exactly like a hangup. 0 keeps the old block-forever
     * behaviour.
     */
    bool connect(const std::string &path, int recvTimeoutMs = 0);

    bool connected() const { return in_ != nullptr; }

    /** Drop the connection (idempotent). */
    void close();

    /** Write one request line. False = connection is dead. */
    bool sendLine(const std::string &line);

    /**
     * Read the next line (without newline), replaying any event
     * lines recvResponse() set aside first. nullopt = EOF or
     * error; the connection is closed either way.
     */
    std::optional<std::string> recvLine();

    /**
     * Read lines until one parses as a JSON object with no
     * "event" member — i.e. the *response* to the last request —
     * returning it parsed. Event lines encountered on the way are
     * NOT discarded: the daemon's job events are asynchronous and
     * may overtake a response (a store-warmed job can finish
     * before the submit reply is written), so they are queued and
     * replayed by the next recvLine() calls in arrival order.
     * nullopt = connection died first.
     */
    std::optional<json::Value> recvResponse();

  private:
    /** One line straight off the socket, bypassing the replay. */
    std::optional<std::string> readSocketLine();

    /** Buffered read side; owns the socket fd. */
    std::FILE *in_ = nullptr;
    /** Raw socket for MSG_NOSIGNAL writes (same fd as in_). */
    int fd_ = -1;
    /** Event lines recvResponse() read past, oldest first. */
    std::deque<std::string> replay_;
};

} // namespace vliw::dist

#endif // WIVLIW_DIST_NDJSON_CLIENT_HH
