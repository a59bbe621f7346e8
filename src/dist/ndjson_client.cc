#include "ndjson_client.hh"

#include <cerrno>
#include <cstring>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "support/faultpoints.hh"

namespace vliw::dist {

bool
NdjsonClient::connect(const std::string &path, int recvTimeoutMs)
{
    close();
    sockaddr_un addr = {};
    if (path.size() >= sizeof(addr.sun_path))
        return false;
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return false;
    }
    if (recvTimeoutMs > 0) {
        // Per-attempt transport timeout on both directions: a
        // wedged daemon shows up as a failed read/write within
        // this bound instead of hanging a worker forever.
        timeval tv = {};
        tv.tv_sec = recvTimeoutMs / 1000;
        tv.tv_usec = (recvTimeoutMs % 1000) * 1000;
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    }
    in_ = ::fdopen(fd, "r");
    if (!in_) {
        ::close(fd);
        return false;
    }
    // Writes go straight to the fd with MSG_NOSIGNAL: a daemon
    // that hung up must surface as a failed send the caller can
    // handle, not as a process-killing SIGPIPE.
    fd_ = fd;
    return true;
}

void
NdjsonClient::close()
{
    if (in_) {
        std::fclose(in_);    // also closes fd_
        in_ = nullptr;
    }
    fd_ = -1;
    replay_.clear();
}

bool
NdjsonClient::sendLine(const std::string &line)
{
    if (fd_ < 0)
        return false;
    if (faults::fire("client.send").fired()) {
        // Injected transport loss: indistinguishable from a daemon
        // hangup, so it exercises exactly the caller's hangup path.
        close();
        return false;
    }
    std::string framed = line;
    framed.push_back('\n');
    std::size_t sent = 0;
    while (sent < framed.size()) {
        const ssize_t n =
            ::send(fd_, framed.data() + sent, framed.size() - sent,
                   MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            close();
            return false;
        }
        sent += std::size_t(n);
    }
    return true;
}

std::optional<std::string>
NdjsonClient::readSocketLine()
{
    if (!in_)
        return std::nullopt;
    if (faults::fire("client.recv").fired()) {
        close();
        return std::nullopt;
    }
    std::string line;
    int c;
    while ((c = std::fgetc(in_)) != EOF) {
        if (c == '\n')
            return line;
        line.push_back(char(c));
    }
    close();
    if (!line.empty())
        return line;
    return std::nullopt;
}

std::optional<std::string>
NdjsonClient::recvLine()
{
    if (!replay_.empty()) {
        std::string line = std::move(replay_.front());
        replay_.pop_front();
        return line;
    }
    return readSocketLine();
}

std::optional<json::Value>
NdjsonClient::recvResponse()
{
    // Read fresh lines only: replayed events already failed the
    // "is this the response" test once and never pass it later.
    while (true) {
        const std::optional<std::string> line = readSocketLine();
        if (!line)
            return std::nullopt;
        if (line->empty())
            continue;
        std::optional<json::Value> parsed = json::parse(*line);
        if (!parsed || !parsed->isObject())
            continue;    // never ours: responses are objects
        if (parsed->find("event") != nullptr) {
            // An async job event that overtook the response —
            // keep it for the caller's event drain.
            replay_.push_back(*line);
            continue;
        }
        return parsed;
    }
}

} // namespace vliw::dist
