/**
 * @file
 * Plain-TCP transport for the search service: newline-delimited wire
 * frames over IPv4 sockets, loopback-oriented.
 *
 * `TcpServer` owns a listener plus one reader thread per accepted
 * connection; every request line read is handed to
 * `SearchService::submit` with a write-mutexed socket sink (inline
 * replies from the reader thread and streamed frames from service
 * workers share the connection). A failed socket write — the peer
 * closed or vanished — makes the sink return false, which the
 * service turns into cooperative cancellation, same as the bus
 * transport.
 *
 * Write policy. Every socket, accepted or connected, sets
 * `TCP_NODELAY`, and a frame leaves with its newline in one
 * `sendmsg`, so no frame waits for the peer's delayed ACK. The only
 * frames the sink holds back are `sample` frames (sent
 * `FrameSink::Delivery::Deferrable`), about 200 of the ~220 frames of
 * a search: they collect in a per-connection buffer that is written,
 * in order, together with the next frame that is not a `sample`
 * (`phase`, `improvement`, `frontier`, `done`, `error`, `pong`,
 * `stats`), or with the `sample` that would take it past 16 KiB, or
 * with the first `sample` sent 1 ms or more after the last write.
 * Both limits are fixed. The buffer never holds more than 16 KiB.
 *
 * Staleness. The 1 ms and 16 KiB triggers are checked when a frame
 * is sent, not by a timer; a held frame goes out no later than the
 * next frame on its connection that meets one of them, and at the
 * latest with its request's terminal frame, which is never held.
 * Cancellation keeps its bound: the reader's EOF marks the sink
 * closed, so the next `send` fails at once, held or not. A write
 * error that no EOF reports is seen at the next write, which comes
 * at most 1 ms or 16 KiB of samples later.
 *
 * `TcpClient` is the matching blocking client: connect, send request
 * lines (one `sendmsg` each), read reply frames line by line. Used by
 * the end-to-end test, the smoke bench and the example daemon/client
 * pair.
 */

#ifndef DOSA_SERVICE_TCP_SERVER_HH
#define DOSA_SERVICE_TCP_SERVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/search_service.hh"
#include "util/thread_annotations.hh"

namespace dosa::service {

/** Line-framed TCP front-end over one `SearchService`. */
class TcpServer
{
  public:
    /**
     * @param service Engine the connections feed; must outlive the
     *                server.
     * @param port    Port to bind on 127.0.0.1 (0 = ephemeral; read
     *                the chosen one back with `port()`).
     */
    explicit TcpServer(SearchService &service, uint16_t port = 0);

    /** Stops (idempotently) and joins every thread. */
    ~TcpServer();

    TcpServer(const TcpServer &) = delete;
    TcpServer &operator=(const TcpServer &) = delete;

    /**
     * Bind, listen and start accepting. False plus a diagnostic on
     * any socket failure (port in use, ...).
     */
    bool start(std::string &error);

    /**
     * Stop accepting, shut down every connection (failing their
     * sinks, so in-flight searches cancel within one sample) and
     * join the reader threads. Does not touch the service itself.
     */
    void stop();

    /** Bound port (valid after a successful `start`). */
    uint16_t port() const { return port_; }

  private:
    struct Connection;

    void acceptLoop() EXCLUDES(conns_mutex_);
    void readerLoop(std::shared_ptr<Connection> conn);
    void reapFinished() EXCLUDES(conns_mutex_);

    SearchService &service_;
    uint16_t port_;
    int listen_fd_ = -1;
    std::atomic<bool> running_{false};
    std::thread accept_thread_;
    util::Mutex conns_mutex_;
    /** Live connections; readers join outside the lock (reap/stop). */
    std::vector<std::shared_ptr<Connection>> conns_
            GUARDED_BY(conns_mutex_);
};

/** Blocking line-framed client for `TcpServer`. */
class TcpClient
{
  public:
    TcpClient() = default;
    ~TcpClient(); ///< closes

    TcpClient(const TcpClient &) = delete;
    TcpClient &operator=(const TcpClient &) = delete;

    /** Connect to `host:port`; false plus diagnostic on failure. */
    bool connect(const std::string &host, uint16_t port,
                 std::string &error);

    /** Send one request line (delimiter added); false on error. */
    bool sendLine(const std::string &line);

    /**
     * Read the next reply line (delimiter stripped), blocking.
     * False on EOF or a socket error.
     */
    bool receiveLine(std::string &line);

    /** Close the connection (idempotent). */
    void close();

    bool connected() const { return fd_ >= 0; }

    /** The socket, for inspection only (-1 when not connected). */
    int fd() const { return fd_; }

  private:
    int fd_ = -1;
    std::string buffer_; ///< bytes received, lines from `head_` unread
    size_t head_ = 0;    ///< start of the first unread line
};

} // namespace dosa::service

#endif // DOSA_SERVICE_TCP_SERVER_HH
