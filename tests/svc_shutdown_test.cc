/**
 * @file
 * Graceful-shutdown and queue-policy tests for the upcd daemon
 * (svc/daemon.hh): drain during an in-flight composite persists the
 * completed workloads' `.result` files and a restarted daemon resumes
 * from them; queued jobs are flushed with typed errors; request
 * timeouts fire off an injected ManualClock; queue bounds fail closed;
 * and tenant scheduling is round-robin fair.
 *
 * The drain choreography is deterministic without sleeps: a progress
 * observer *blocks the engine thread* between workload 1 and
 * workload 2, the test raises drain() while it is parked, and only
 * then releases it — so the stop flag is provably up before the
 * second workload could be claimed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "svc/clock.hh"
#include "svc/daemon.hh"
#include "svc/json.hh"

using namespace upc780;
namespace fs = std::filesystem;

namespace
{

fs::path
scratchDir(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) / ("upc780_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

svc::DaemonConfig
daemonConfig(const fs::path &root)
{
    svc::DaemonConfig cfg;
    cfg.cacheDir = (root / "cache").string();
    cfg.workers = 0;
    cfg.engineJobs = 1;
    return cfg;
}

std::string
runToReply(svc::Daemon &daemon, const std::string &request)
{
    svc::JobHandle h = daemon.submit(request);
    while (daemon.runQueuedOnce()) {
    }
    return h.wait();
}

bool
replyOk(const std::string &reply)
{
    const svc::json::Value v = svc::json::parse(reply);
    const svc::json::Value *ok = v.find("ok");
    return ok && ok->isBool() && ok->asBool();
}

std::string
errorType(const std::string &reply)
{
    const svc::json::Value v = svc::json::parse(reply);
    const svc::json::Value *err = v.find("error");
    if (!err)
        return "";
    const svc::json::Value *type = err->find("type");
    return type ? type->asString() : "";
}

std::string
eventType(const svc::json::Value &ev)
{
    const svc::json::Value *type = ev.find("event");
    return type ? type->asString() : "";
}

std::vector<fs::path>
resultFilesIn(const fs::path &dir)
{
    std::vector<fs::path> out;
    if (fs::exists(dir))
        for (const auto &e : fs::recursive_directory_iterator(dir))
            if (e.is_regular_file() && e.path().extension() == ".result")
                out.push_back(e.path());
    std::sort(out.begin(), out.end());
    return out;
}

std::string
fileBytes(const fs::path &p)
{
    std::ifstream f(p, std::ios::binary);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

} // namespace

TEST(Shutdown, DrainPersistsCompletedWorkloadsAndRestartResumes)
{
    const std::string request =
        R"({"workloads":"paper","instructions":3000,"warmup":600})";

    // Reference bytes from an undisturbed daemon.
    const fs::path cleanRoot = scratchDir("svc_drain_clean");
    std::string cleanReply;
    {
        svc::Daemon clean(daemonConfig(cleanRoot));
        cleanReply = runToReply(clean, request);
        ASSERT_TRUE(replyOk(cleanReply));
    }

    const fs::path root = scratchDir("svc_drain");
    svc::DaemonConfig cfg = daemonConfig(root);
    cfg.workers = 1; // a real worker, so drain() can interrupt it
    cfg.spoolDir = (root / "spool").string();
    std::string key;
    std::string firstResultBytes;
    fs::path firstResultFile;
    {
        svc::Daemon daemon(cfg);
        key = daemon.keyFor(request);

        std::mutex mu;
        std::condition_variable cv;
        bool parked = false;
        bool released = false;
        auto observer = [&](const svc::json::Value &ev) {
            if (eventType(ev) != "progress")
                return;
            std::unique_lock<std::mutex> lock(mu);
            if (parked)
                return; // only the first workload blocks
            parked = true;
            cv.notify_all();
            cv.wait(lock, [&] { return released; });
        };

        svc::JobHandle h = daemon.submit(request, observer);
        {
            // The worker is now parked inside the first progress
            // callback: workload 1 is done, workload 2 not claimed.
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return parked; });
        }
        std::thread drainer([&] { daemon.drain(); });
        while (!daemon.draining())
            std::this_thread::yield();
        {
            std::lock_guard<std::mutex> lock(mu);
            released = true;
        }
        cv.notify_all();
        const std::string reply = h.wait();
        drainer.join();

        EXPECT_FALSE(replyOk(reply));
        EXPECT_EQ(errorType(reply), "Draining") << reply;
        EXPECT_GE(daemon.stats().drained, 1u);
        EXPECT_EQ(daemon.stats().engineRuns, 1u);

        // Exactly the one finished workload was persisted.
        const auto results = resultFilesIn(fs::path(cfg.spoolDir) / key);
        ASSERT_EQ(results.size(), 1u)
            << "expected one spooled .result after draining mid-job";
        firstResultFile = results.front();
        firstResultBytes = fileBytes(firstResultFile);
        ASSERT_FALSE(firstResultBytes.empty());
    }

    // Restart over the same cache + spool: the composite resumes from
    // the spooled result (it is loaded, not re-run) and the final
    // reply is byte-identical to the never-interrupted daemon's. A
    // successful job removes its spool before replying, so the spool
    // is inspected from the progress observer, which runs after each
    // workload's `.result` is persisted.
    cfg.workers = 0;
    svc::Daemon reborn(cfg);
    bool sawLastWorkload = false;
    auto spoolCheck = [&](const svc::json::Value &ev) {
        if (eventType(ev) != "progress" ||
            ev.find("completed")->asUint() != ev.find("total")->asUint())
            return;
        sawLastWorkload = true;
        EXPECT_EQ(fileBytes(firstResultFile), firstResultBytes)
            << "resume re-ran (rewrote) the already-completed workload";
        // All five workloads are spooled now.
        EXPECT_EQ(resultFilesIn(fs::path(cfg.spoolDir) / key).size(), 5u);
    };
    svc::JobHandle h = reborn.submit(request, spoolCheck);
    while (reborn.runQueuedOnce()) {
    }
    const std::string resumed = h.wait();
    ASSERT_TRUE(replyOk(resumed)) << resumed;
    EXPECT_EQ(resumed, cleanReply)
        << "resume after drain changed the reply bytes";
    EXPECT_EQ(reborn.stats().engineRuns, 1u);
    EXPECT_TRUE(sawLastWorkload);
    EXPECT_FALSE(fs::exists(fs::path(cfg.spoolDir) / key))
        << "a successful job left its spool behind";
}

TEST(Shutdown, QueuedJobsFlushedWithTypedErrors)
{
    const fs::path root = scratchDir("svc_flush");
    svc::Daemon daemon(daemonConfig(root)); // workers = 0: nothing runs

    svc::JobHandle a = daemon.submit(
        R"({"workloads":["ts1"],"instructions":2500,"warmup":500,"seed":1})");
    svc::JobHandle b = daemon.submit(
        R"({"workloads":["ts1"],"instructions":2500,"warmup":500,"seed":2})");
    ASSERT_EQ(daemon.stats().admitted, 2u);

    daemon.drain();
    for (svc::JobHandle *h : {&a, &b}) {
        const std::string reply = h->wait();
        EXPECT_FALSE(replyOk(reply));
        EXPECT_EQ(errorType(reply), "Draining");
    }
    EXPECT_EQ(daemon.stats().drained, 2u);
    EXPECT_EQ(daemon.stats().engineRuns, 0u);

    // Post-drain submissions are refused outright.
    const std::string late = daemon.submit(
        R"({"workloads":["ts1"],"instructions":2500,"warmup":500,"seed":3})")
                                 .wait();
    EXPECT_EQ(errorType(late), "Unavailable");
}

TEST(Shutdown, RequestTimeoutFiresOffTheManualClock)
{
    const fs::path root = scratchDir("svc_timeout");
    svc::ManualClock clock;
    svc::DaemonConfig cfg = daemonConfig(root);
    cfg.requestTimeoutMs = 1000;
    cfg.clock = &clock;
    svc::Daemon daemon(cfg);

    // Queue a job, let virtual time blow past the deadline, pump: the
    // job is answered with a timeout instead of being simulated.
    svc::JobHandle stale = daemon.submit(
        R"({"workloads":["ts1"],"instructions":2500,"warmup":500,"seed":1})");
    clock.advanceMs(1001);
    EXPECT_TRUE(daemon.runQueuedOnce());
    EXPECT_EQ(errorType(stale.wait()), "Timeout");
    EXPECT_EQ(daemon.stats().timeouts, 1u);
    EXPECT_EQ(daemon.stats().engineRuns, 0u);

    // A fresh job inside the deadline runs normally.
    svc::JobHandle fresh = daemon.submit(
        R"({"workloads":["ts1"],"instructions":2500,"warmup":500,"seed":2})");
    clock.advanceMs(999);
    EXPECT_TRUE(daemon.runQueuedOnce());
    EXPECT_TRUE(replyOk(fresh.wait()));
    EXPECT_EQ(daemon.stats().timeouts, 1u);
    EXPECT_EQ(daemon.stats().engineRuns, 1u);
}

TEST(Shutdown, QueueBoundsFailClosed)
{
    const fs::path root = scratchDir("svc_bounds");
    svc::DaemonConfig cfg = daemonConfig(root);
    cfg.maxQueuedPerTenant = 2;
    cfg.maxQueuedTotal = 3;
    svc::Daemon daemon(cfg);

    auto request = [](const char *tenant, int seed) {
        return std::string(R"({"tenant":")") + tenant +
               R"(","workloads":["ts1"],"instructions":2500,)" +
               R"("warmup":500,"seed":)" + std::to_string(seed) + "}";
    };

    std::vector<svc::JobHandle> held;
    held.push_back(daemon.submit(request("t1", 1)));
    held.push_back(daemon.submit(request("t1", 2)));
    // Third for the same tenant: per-tenant bound.
    EXPECT_EQ(errorType(daemon.submit(request("t1", 3)).wait()),
              "QueueFull");
    // Another tenant still fits (total now 3)...
    held.push_back(daemon.submit(request("t2", 4)));
    // ...but the global bound stops the next one, any tenant.
    EXPECT_EQ(errorType(daemon.submit(request("t2", 5)).wait()),
              "QueueFull");
    EXPECT_EQ(errorType(daemon.submit(request("t3", 6)).wait()),
              "QueueFull");
    EXPECT_EQ(daemon.stats().admitted, 3u);
    EXPECT_EQ(daemon.stats().rejected, 3u);

    // Draining the backlog reopens admission.
    while (daemon.runQueuedOnce()) {
    }
    for (auto &h : held)
        EXPECT_TRUE(replyOk(h.wait()));
    EXPECT_TRUE(replyOk(runToReply(daemon, request("t1", 7))));
}

TEST(Shutdown, TenantSchedulingIsRoundRobin)
{
    const fs::path root = scratchDir("svc_fair");
    svc::Daemon daemon(daemonConfig(root));

    auto request = [](const char *tenant, int seed) {
        return std::string(R"({"tenant":")") + tenant +
               R"(","workloads":["ts1"],"instructions":2500,)" +
               R"("warmup":500,"seed":)" + std::to_string(seed) + "}";
    };

    // Tenant "aaa" floods three jobs before "bbb" submits one; round-
    // robin must still interleave bbb after aaa's first job rather
    // than FIFO-starving it behind the flood.
    std::mutex mu;
    std::vector<std::string> runOrder;
    auto observerFor = [&](std::string tenant) {
        return [&, tenant](const svc::json::Value &ev) {
            if (eventType(ev) == "run") {
                std::lock_guard<std::mutex> lock(mu);
                runOrder.push_back(tenant);
            }
        };
    };

    std::vector<svc::JobHandle> handles;
    handles.push_back(daemon.submit(request("aaa", 1), observerFor("aaa")));
    handles.push_back(daemon.submit(request("aaa", 2), observerFor("aaa")));
    handles.push_back(daemon.submit(request("aaa", 3), observerFor("aaa")));
    handles.push_back(daemon.submit(request("bbb", 4), observerFor("bbb")));

    while (daemon.runQueuedOnce()) {
    }
    for (auto &h : handles)
        EXPECT_TRUE(replyOk(h.wait()));

    const std::vector<std::string> expected = {"aaa", "bbb", "aaa", "aaa"};
    EXPECT_EQ(runOrder, expected);
}
