#include "service/server.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/logging.h"

namespace adapipe {

namespace {

/** Send all of @p data; returns false on a broken connection. */
bool
sendAll(int fd, const std::string &data)
{
    std::size_t sent = 0;
    while (sent < data.size()) {
        // MSG_NOSIGNAL: a peer that disconnected mid-response must
        // surface as EPIPE here, not kill the server with SIGPIPE.
        const ssize_t n = ::send(fd, data.data() + sent,
                                 data.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

PlanServer::PlanServer(PlanServerOptions opts)
    : opts_(std::move(opts)), service_(opts_.service)
{
    ADAPIPE_ASSERT(opts_.threads >= 1,
                   "server needs at least one worker");
}

PlanServer::~PlanServer()
{
    stop();
}

ParseStatus
PlanServer::start()
{
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
        return ParseStatus::failure(std::string("socket: ") +
                                    std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port =
        htons(static_cast<std::uint16_t>(opts_.port));
    if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) !=
        1) {
        closeListener();
        return ParseStatus::failure("invalid bind address '" +
                                    opts_.host + "'");
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        const std::string err = std::strerror(errno);
        closeListener();
        return ParseStatus::failure("bind " + opts_.host + ":" +
                                    std::to_string(opts_.port) +
                                    ": " + err);
    }
    if (::listen(listen_fd_, 64) != 0) {
        const std::string err = std::strerror(errno);
        closeListener();
        return ParseStatus::failure("listen: " + err);
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_,
                      reinterpret_cast<sockaddr *>(&bound),
                      &len) == 0) {
        port_ = ntohs(bound.sin_port);
    }

    worker_metrics_.resize(static_cast<std::size_t>(opts_.threads));
    for (int i = 0; i < opts_.threads; ++i) {
        workers_.emplace_back(
            [this, i] { workerLoop(static_cast<std::size_t>(i)); });
    }
    acceptor_ = std::thread([this] { acceptLoop(); });
    return parseOk();
}

void
PlanServer::acceptLoop()
{
    while (!stopping_.load(std::memory_order_acquire)) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            // Listener closed (or broken) — stop accepting; the
            // workers drain what is already queued.
            break;
        }
        {
            std::lock_guard<std::mutex> lock(queue_mutex_);
            pending_.push_back(fd);
        }
        queue_cv_.notify_one();
    }
}

void
PlanServer::workerLoop(std::size_t index)
{
    obs::ScopedRegistry scoped(&worker_metrics_[index]);
    for (;;) {
        int fd = -1;
        {
            std::unique_lock<std::mutex> lock(queue_mutex_);
            queue_cv_.wait(lock, [this] {
                return !pending_.empty() ||
                       stopping_.load(std::memory_order_acquire);
            });
            if (pending_.empty())
                return; // stopping, nothing queued
            fd = pending_.front();
            pending_.pop_front();
        }
        {
            std::lock_guard<std::mutex> lock(active_mutex_);
            active_fds_.push_back(fd);
        }
        handleConnection(fd);
        {
            std::lock_guard<std::mutex> lock(active_mutex_);
            active_fds_.erase(std::remove(active_fds_.begin(),
                                          active_fds_.end(), fd),
                              active_fds_.end());
        }
        ::close(fd);
    }
}

void
PlanServer::handleConnection(int fd)
{
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    std::string buffer;
    char chunk[4096];
    for (;;) {
        // Answer every complete line already buffered.
        std::size_t nl;
        while ((nl = buffer.find('\n')) != std::string::npos) {
            std::string line = buffer.substr(0, nl);
            buffer.erase(0, nl + 1);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (line.empty())
                continue;
            const std::string response = service_.handleLine(line);
            if (!sendAll(fd, response + "\n"))
                return;
            if (service_.shutdownRequested()) {
                // Let the shutdown response land, then stop the
                // whole server from outside the worker pool (stop()
                // joins the workers, so it must not run on one).
                std::thread([this] { stop(); }).detach();
                return;
            }
        }
        if (stopping_.load(std::memory_order_acquire))
            return;
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return; // peer closed or connection reset
        }
        buffer.append(chunk, static_cast<std::size_t>(n));
    }
}

void
PlanServer::closeListener()
{
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
}

void
PlanServer::stop()
{
    // First caller wins; later calls (and wait()) just join.
    if (!stopping_.exchange(true, std::memory_order_acq_rel)) {
        // Unblock accept() by shutting the listener down, and wake
        // blocked readers so their workers notice stopping_.
        if (listen_fd_ >= 0)
            ::shutdown(listen_fd_, SHUT_RDWR);
        {
            std::lock_guard<std::mutex> lock(active_mutex_);
            for (int fd : active_fds_)
                ::shutdown(fd, SHUT_RDWR);
        }
        // A worker reads stopping_ under queue_mutex_ and then blocks;
        // taking that lock here orders the store before its check or
        // after its block, so the notify below cannot be lost.
        { std::lock_guard<std::mutex> lock(queue_mutex_); }
        queue_cv_.notify_all();
    }
    std::lock_guard<std::mutex> join(join_mutex_);
    if (joined_)
        return;
    if (acceptor_.joinable())
        acceptor_.join();
    queue_cv_.notify_all();
    for (std::thread &w : workers_) {
        if (w.joinable())
            w.join();
    }
    // Close any connections that never got a worker.
    for (int fd : pending_)
        ::close(fd);
    pending_.clear();
    closeListener();
    for (const obs::Registry &r : worker_metrics_)
        metrics_.merge(r);
    worker_metrics_.clear();
    joined_ = true;
}

void
PlanServer::wait()
{
    // The shutdown path detaches a thread that runs stop(); polling
    // the joined flag keeps wait() safe to call from main while that
    // thread does the joining.
    for (;;) {
        {
            std::lock_guard<std::mutex> join(join_mutex_);
            if (joined_)
                return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
}

} // namespace adapipe
