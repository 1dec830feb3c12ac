/**
 * @file
 * Wire transport for the experiment daemon: a Unix-domain stream
 * socket speaking newline-delimited JSON.
 *
 * Protocol, per connection:
 *
 *     client:  one request line (a job document, or the bare word
 *              "ping")
 *     daemon:  zero or more progress-event lines — objects carrying
 *              an "event" member ("admitted", "run", "progress",
 *              "cache", "done", ...)
 *     daemon:  exactly one final line, then EOF
 *
 * The final line is the reply body *verbatim* — for a cache hit it is
 * the stored bytes, for a cold run the bytes just stored — so a
 * client diffing two replies byte-for-byte is exercising the
 * determinism contract end to end. Everything per-request/transient
 * (hit vs cold, queue position) rides in the event lines, which is
 * why they are separate lines and not reply members.
 *
 * The Server owns only transport: sockets, threads, line framing.
 * All policy (admission, queueing, caching, single-flight) lives in
 * the Daemon, which the integration tests drive directly without any
 * of this file.
 */

#ifndef UPC780_SVC_SERVER_HH
#define UPC780_SVC_SERVER_HH

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "svc/daemon.hh"

namespace upc780::svc
{

/**
 * Buffered '\n'-framed line reader over one stream socket. It reads
 * the socket a chunk at a time into a heap buffer, so a line costs a
 * few recv() calls however long it is, and bytes past one line stay
 * buffered for the next.
 */
class LineReader
{
  public:
    /** The default cap: the JSON parser's own input limit. */
    static constexpr size_t MaxLineBytes = 8u << 20;

    explicit LineReader(int fd, size_t maxBytes = MaxLineBytes)
        : fd_(fd), max_(maxBytes)
    {}

    /**
     * Read the next line into @p line (newline stripped). Returns
     * false on EOF before any byte of a line, on a socket error, or
     * when a line runs past the cap; EOF may end the last line.
     */
    bool next(std::string &line);

  private:
    int fd_;
    size_t max_;
    std::string buf_;
    size_t pos_ = 0;  //!< start of the unread bytes in buf_
    size_t scan_ = 0; //!< bytes from pos_ known to hold no '\n'
};

/** Serves one Daemon on one Unix-domain socket. */
class Server
{
  public:
    /** Binds and listens immediately; throws ConfigError on failure
     *  (path too long for sun_path, address in use, ...). */
    Server(Daemon &daemon, std::string socketPath);

    /** Stops (idempotent) and removes the socket file. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Start the accept loop (background thread). */
    void start();

    /** Close the listener, join the accept loop and every connection
     *  handler. Safe to call more than once. */
    void stop();

    const std::string &socketPath() const { return path_; }

  private:
    /** One connection handler thread; done is set as it returns. */
    struct Connection
    {
        std::thread thread;
        std::atomic<bool> done{false};
    };

    void acceptLoop();
    void handleConnection(int fd);

    Daemon &daemon_;
    std::string path_;
    std::atomic<int> listenFd_{-1};
    std::atomic<bool> stopping_{false};
    std::thread acceptThread_;
    std::mutex connMu_;
    /** Live handlers; acceptLoop joins the finished ones as it goes,
     *  stop() the rest. */
    std::vector<std::unique_ptr<Connection>> connections_;
};

/**
 * Client helper: connect to @p socketPath, send @p requestLine, stream
 * every progress-event line to @p onEvent (optional, raw line text),
 * and return the final reply line. Throws ConfigError on connect or
 * protocol failures.
 */
std::string requestOverSocket(
    const std::string &socketPath, const std::string &requestLine,
    const std::function<void(const std::string &)> &onEvent = {});

} // namespace upc780::svc

#endif // UPC780_SVC_SERVER_HH
