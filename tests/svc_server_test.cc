/**
 * @file
 * Transport tests for the upcd socket layer (svc/server.hh): the
 * buffered line framing (long lines split over many sends, several
 * lines in one read, the length cap, an EOF-terminated last line),
 * the reply over a real socket equalling the in-process reply, and a
 * long-lived Server joining its finished connection threads as it
 * goes rather than holding one per request until stop().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "svc/daemon.hh"
#include "svc/server.hh"

using namespace upc780;
namespace fs = std::filesystem;

namespace
{

/** A connected stream socket pair, closed on scope exit. */
struct SocketPair
{
    int fd[2] = {-1, -1};

    SocketPair()
    {
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fd), 0);
    }

    ~SocketPair()
    {
        for (int f : fd)
            if (f >= 0)
                ::close(f);
    }

    void
    send(const std::string &bytes) const
    {
        size_t off = 0;
        while (off < bytes.size()) {
            const ssize_t n = ::send(fd[1], bytes.data() + off,
                                     bytes.size() - off, MSG_NOSIGNAL);
            ASSERT_GT(n, 0);
            off += static_cast<size_t>(n);
        }
    }

    /** End the writer's side: the reader sees EOF after the bytes. */
    void closeWriter() { ::shutdown(fd[1], SHUT_WR); }
};

size_t
countLines(const char *path)
{
    std::ifstream in(path);
    return static_cast<size_t>(
        std::count(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>(), '\n'));
}

/** Threads of this process (entries in /proc/self/task). */
size_t
threadCount()
{
    return static_cast<size_t>(std::distance(
        fs::directory_iterator("/proc/self/task"),
        fs::directory_iterator()));
}

fs::path
scratchDir(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) / ("upc780_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

} // namespace

TEST(LineReader, LongLineAcrossManySends)
{
    SocketPair sp;
    std::string big(200000, 'x');
    for (size_t i = 0; i < big.size(); i += 997)
        big[i] = static_cast<char>('a' + i % 26);

    // Many small sends from another thread: the reader sees the line
    // arrive in pieces and must reassemble it exactly.
    std::thread writer([&] {
        for (size_t off = 0; off < big.size(); off += 7001)
            sp.send(big.substr(off, 7001));
        sp.send("\nnext\n");
        sp.closeWriter();
    });
    svc::LineReader reader(sp.fd[0]);
    std::string line;
    ASSERT_TRUE(reader.next(line));
    EXPECT_EQ(line, big);
    ASSERT_TRUE(reader.next(line));
    EXPECT_EQ(line, "next");
    EXPECT_FALSE(reader.next(line));
    writer.join();
}

TEST(LineReader, SeveralLinesInOneRead)
{
    SocketPair sp;
    sp.send("{\"event\":\"admitted\"}\n{\"event\":\"run\"}\n\n"
            "{\"ok\":true}\n");
    sp.closeWriter();
    svc::LineReader reader(sp.fd[0]);
    std::string line;
    ASSERT_TRUE(reader.next(line));
    EXPECT_EQ(line, "{\"event\":\"admitted\"}");
    ASSERT_TRUE(reader.next(line));
    EXPECT_EQ(line, "{\"event\":\"run\"}");
    ASSERT_TRUE(reader.next(line));
    EXPECT_EQ(line, "");
    ASSERT_TRUE(reader.next(line));
    EXPECT_EQ(line, "{\"ok\":true}");
    EXPECT_FALSE(reader.next(line));
}

TEST(LineReader, LineOverTheCapIsRejected)
{
    constexpr size_t Cap = 100;
    {
        // Exactly at the cap is a line; one byte more is not.
        SocketPair sp;
        sp.send(std::string(Cap, 'a') + "\n" + std::string(Cap + 1, 'b') +
                "\n");
        sp.closeWriter();
        svc::LineReader reader(sp.fd[0], Cap);
        std::string line;
        ASSERT_TRUE(reader.next(line));
        EXPECT_EQ(line.size(), Cap);
        EXPECT_FALSE(reader.next(line));
    }
    {
        // Over the cap with no newline in sight: refused before EOF.
        SocketPair sp;
        sp.send(std::string(20000, 'c'));
        svc::LineReader reader(sp.fd[0], Cap);
        std::string line;
        EXPECT_FALSE(reader.next(line));
    }
    {
        // Over the cap and ended by EOF rather than a newline.
        SocketPair sp;
        sp.send(std::string(Cap + 1, 'd'));
        sp.closeWriter();
        svc::LineReader reader(sp.fd[0], Cap);
        std::string line;
        EXPECT_FALSE(reader.next(line));
    }
}

TEST(LineReader, EofEndsTheLastLine)
{
    {
        SocketPair sp;
        sp.send("first\nlast");
        sp.closeWriter();
        svc::LineReader reader(sp.fd[0]);
        std::string line;
        ASSERT_TRUE(reader.next(line));
        EXPECT_EQ(line, "first");
        ASSERT_TRUE(reader.next(line));
        EXPECT_EQ(line, "last");
        EXPECT_FALSE(reader.next(line));
    }
    {
        // EOF before any byte is no line at all.
        SocketPair sp;
        sp.closeWriter();
        svc::LineReader reader(sp.fd[0]);
        std::string line;
        EXPECT_FALSE(reader.next(line));
    }
}

TEST(Server, ReplyOverSocketEqualsInProcessReply)
{
    const fs::path root = scratchDir("svc_server_reply");
    svc::DaemonConfig cfg;
    cfg.cacheDir = (root / "cache").string();
    svc::Daemon daemon(cfg);
    const std::string request =
        R"({"workloads":["ts1"],"instructions":2500,"warmup":500,)"
        R"("report":true})";
    svc::JobHandle cold = daemon.submit(request);
    while (daemon.runQueuedOnce()) {
    }
    const std::string expected = cold.wait();

    svc::Server server(daemon, (root / "s.sock").string());
    server.start();
    std::vector<std::string> events;
    const std::string reply = svc::requestOverSocket(
        server.socketPath(), request,
        [&](const std::string &ev) { events.push_back(ev); });
    EXPECT_EQ(reply, expected);
    EXPECT_EQ(events.size(), 2u) << "a hit sends 'cache' and 'done'";
}

TEST(Server, FinishedConnectionThreadsAreJoinedAsTheyGo)
{
    const fs::path root = scratchDir("svc_server_reap");
    svc::DaemonConfig cfg;
    cfg.cacheDir = (root / "cache").string();
    svc::Daemon daemon(cfg);
    const std::string request =
        R"({"workloads":["ts1"],"instructions":2500,"warmup":500})";
    svc::JobHandle cold = daemon.submit(request);
    while (daemon.runQueuedOnce()) {
    }
    const std::string expected = cold.wait();

    const size_t before = threadCount();
    {
        svc::Server server(daemon, (root / "s.sock").string());
        server.start();
        const size_t maps = countLines("/proc/self/maps");

        // 2000 sequential requests, pings and cache hits in turn.
        size_t peak = 0;
        for (int i = 0; i < 2000; ++i) {
            const std::string reply = svc::requestOverSocket(
                server.socketPath(), i % 2 ? request : "ping");
            if (i % 2) {
                ASSERT_EQ(reply, expected);
            }
            peak = std::max(peak, threadCount());
        }
        // Main thread + accept loop + the few handlers still closing.
        EXPECT_LE(peak, before + 8) << "connection threads pile up";
        // A thread never joined keeps its stack mapped; 2000 of them
        // would add thousands of mappings.
        EXPECT_LT(countLines("/proc/self/maps"), maps + 200)
            << "finished connection threads were not joined";
        server.stop();
        EXPECT_EQ(threadCount(), before) << "stop() left threads behind";
    }
}
