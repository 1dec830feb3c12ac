/**
 * @file
 * Integration tests for the upcd experiment daemon (svc/daemon.hh),
 * driven entirely in-process: the daemon is constructed directly,
 * its queue is pumped by hand where determinism wants it, and every
 * assertion is on bytes or counters — no sockets, no sleeps.
 *
 * The headline properties, per the service's contract:
 *  - a cache hit is byte-identical to the cold run that populated it,
 *    for all five paper workloads in one composite;
 *  - concurrent identical submissions collapse to ONE simulation
 *    (single-flight), observable in the engineRuns counter;
 *  - malformed, truncated and type-confused requests are rejected
 *    with structured error replies and never wedge the daemon;
 *  - a worker killed mid-job (deterministic chaos crash) recovers via
 *    the checkpoint/retry path and still produces the clean run's
 *    exact reply bytes;
 *  - a multi-client hammer against a threaded daemon is bit-identical
 *    to serial execution of the same requests.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hh"
#include "sim/engine.hh"
#include "svc/cache.hh"
#include "svc/cachekey.hh"
#include "svc/daemon.hh"
#include "svc/job.hh"
#include "svc/json.hh"
#include "ucode/controlstore.hh"
#include "upc/analyzer.hh"
#include "upc/report.hh"

using namespace upc780;
namespace fs = std::filesystem;

namespace
{

/** A fresh per-test scratch directory under the gtest temp root. */
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
    cfg.workers = 0; // tests pump the queue by hand
    cfg.engineJobs = 1;
    return cfg;
}

/** Submit, pump until resolved, return the reply. */
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

const char *SmallTs1 =
    R"({"workloads":["ts1"],"instructions":3000,"warmup":600})";

} // namespace

TEST(Daemon, CacheHitByteIdenticalAllFivePaperWorkloads)
{
    const fs::path root = scratchDir("svc_hit");
    svc::Daemon daemon(daemonConfig(root));

    const std::string request =
        R"({"workloads":"paper","instructions":3000,"warmup":600})";

    const std::string cold = runToReply(daemon, request);
    ASSERT_TRUE(replyOk(cold)) << cold;
    {
        const auto s = daemon.stats();
        EXPECT_EQ(s.engineRuns, 1u);
        EXPECT_EQ(s.cacheMisses, 1u);
        EXPECT_EQ(s.cacheHits, 0u);
    }

    // The hit resolves at admission — no pump, no engine.
    const std::string hit = daemon.submit(request).wait();
    EXPECT_EQ(cold, hit) << "cache hit is not byte-identical";
    {
        const auto s = daemon.stats();
        EXPECT_EQ(s.engineRuns, 1u) << "cache hit ran a simulation";
        EXPECT_EQ(s.cacheHits, 1u);
    }

    // All five paper workloads are in the reply, each ok.
    const svc::json::Value v = svc::json::parse(cold);
    const auto &reps = v.find("replications")->asArray();
    ASSERT_EQ(reps.size(), 1u);
    const auto &workloads = reps[0].find("workloads")->asArray();
    ASSERT_EQ(workloads.size(), 5u);
    for (const auto &w : workloads)
        EXPECT_TRUE(w.find("ok")->asBool())
            << w.find("name")->asString();
}

TEST(Daemon, CacheSurvivesRestart)
{
    const fs::path root = scratchDir("svc_restart");
    std::string cold;
    std::string key;
    {
        svc::Daemon daemon(daemonConfig(root));
        cold = runToReply(daemon, SmallTs1);
        ASSERT_TRUE(replyOk(cold));
        key = daemon.keyFor(SmallTs1);
    }
    // A new daemon over the same cache directory serves the bytes
    // without simulating: the cache is the durable artifact.
    svc::Daemon reborn(daemonConfig(root));
    const std::string hit = reborn.submit(SmallTs1).wait();
    EXPECT_EQ(cold, hit);
    EXPECT_EQ(reborn.stats().engineRuns, 0u);
    EXPECT_EQ(reborn.keyFor(SmallTs1), key);
}

TEST(Daemon, SingleFlightCollapsesIdenticalSubmissions)
{
    const fs::path root = scratchDir("svc_sflight");
    svc::Daemon daemon(daemonConfig(root));

    constexpr int N = 8;
    std::vector<svc::JobHandle> handles;
    for (int i = 0; i < N; ++i)
        handles.push_back(daemon.submit(SmallTs1));

    // One queued job despite N submissions.
    {
        const auto s = daemon.stats();
        EXPECT_EQ(s.admitted, 1u);
        EXPECT_EQ(s.singleFlightJoins, uint64_t{N - 1});
    }

    EXPECT_TRUE(daemon.runQueuedOnce());
    EXPECT_FALSE(daemon.runQueuedOnce()) << "more than one job queued";

    std::vector<std::string> replies;
    for (auto &h : handles)
        replies.push_back(h.wait());
    for (int i = 1; i < N; ++i)
        EXPECT_EQ(replies[0], replies[i]) << "waiter " << i;
    ASSERT_TRUE(replyOk(replies[0]));
    EXPECT_EQ(daemon.stats().engineRuns, 1u)
        << "identical concurrent requests did not collapse to one run";
}

TEST(Daemon, ConcurrentSubmittersShareOneRun)
{
    const fs::path root = scratchDir("svc_sflight_mt");
    svc::DaemonConfig cfg = daemonConfig(root);
    cfg.workers = 2; // real worker threads this time
    svc::Daemon daemon(cfg);

    constexpr int N = 6;
    std::vector<std::string> replies(N);
    std::vector<std::thread> clients;
    for (int i = 0; i < N; ++i)
        clients.emplace_back([&daemon, &replies, i] {
            replies[i] = daemon.submit(SmallTs1).wait();
        });
    for (auto &t : clients)
        t.join();

    for (int i = 1; i < N; ++i)
        EXPECT_EQ(replies[0], replies[i]);
    ASSERT_TRUE(replyOk(replies[0]));
    // Joins plus at most one cache-hit path; never N engine runs.
    EXPECT_EQ(daemon.stats().engineRuns, 1u);
}

TEST(Daemon, ReportMatchesLocalEngineTables1Through9)
{
    const fs::path root = scratchDir("svc_report");
    svc::Daemon daemon(daemonConfig(root));

    const std::string request =
        R"({"workloads":"paper","instructions":3000,"warmup":600,)"
        R"("report":true})";
    const std::string reply = runToReply(daemon, request);
    ASSERT_TRUE(replyOk(reply)) << reply;
    const svc::json::Value v = svc::json::parse(reply);
    const svc::json::Value *report = v.find("report");
    ASSERT_NE(report, nullptr);

    // The same experiment, run directly on the engine the way the CLI
    // does, must render the same Tables 1-9 to the byte.
    const svc::JobSpec spec =
        svc::parseJobSpec(svc::json::parse(request));
    sim::ParallelEngine engine(svc::toExperimentConfig(spec),
                               sim::EngineConfig{});
    const auto reps =
        engine.runReplicated(svc::profilesFor(spec), spec.replications);
    const sim::CompositeResult &c = reps.front();
    upc::HistogramAnalyzer an(c.histogram, ucode::microcodeImage());
    upc::ReportHwInputs hw;
    hw.ibFills = c.hw.ibFills;
    hw.iReadMisses = c.hw.iReadMisses;
    hw.dReadMisses = c.hw.dReadMisses;
    hw.unalignedRefs = c.hw.unalignedRefs;
    hw.softIntRequests = c.osStats.softIntRequests();
    EXPECT_EQ(report->asString(), upc::writeReport(an, hw))
        << "daemon report diverged from the CLI's";

    for (const char *needle :
         {"Table 1", "Table 4", "Table 9", "Implementation events"})
        EXPECT_NE(report->asString().find(needle), std::string::npos)
            << needle;
}

TEST(Daemon, MalformedRequestsAreStructuredRejections)
{
    const fs::path root = scratchDir("svc_fuzz");
    svc::Daemon daemon(daemonConfig(root));

    const std::vector<std::string> bad = {
        "",
        "{",
        "[1,2",
        "not json at all",
        "\xff\xfe\x00garbage",
        "{\"workloads\":[\"ts1\"]",            // truncated object
        "{\"workloads\":[\"ts1\"]} trailing",  // trailing garbage
        "{\"workloads\":[\"nope\"]}",          // unknown workload id
        "{\"workloads\":[]}",                  // empty list
        "{\"workloads\":[\"ts1\"],\"bogus\":1}", // unknown member
        "{\"workloads\":[\"ts1\"],\"instructions\":0}",
        "{\"workloads\":[\"ts1\"],\"instructions\":-5}",
        "{\"workloads\":[\"ts1\"],\"instructions\":99999999999}",
        "{\"workloads\":[\"ts1\"],\"instructions\":\"many\"}",
        "{\"workloads\":[\"ts1\"],\"replications\":1e400}",
        "{\"workloads\":[\"ts1\"],\"machine\":7}",
        "{\"workloads\":[\"ts1\"],\"machine\":{\"cache\":"
        "{\"size_bytes\":100,\"ways\":3}}}",   // non-power-of-two
        "{\"workloads\":[\"ts1\"],\"tenant\":\"\"}",
        std::string(128, '['),                 // depth bomb
        "{\"workloads\":[\"ts1\"],\"seed\":0.5}",
    };

    for (const std::string &request : bad) {
        const std::string reply = daemon.submit(request).wait();
        EXPECT_FALSE(replyOk(reply)) << "accepted: " << request;
        const svc::json::Value v = svc::json::parse(reply);
        const svc::json::Value *err = v.find("error");
        ASSERT_NE(err, nullptr) << request;
        EXPECT_FALSE(err->find("type")->asString().empty());
        EXPECT_FALSE(err->find("message")->asString().empty());
    }
    EXPECT_EQ(daemon.stats().rejected, bad.size());
    EXPECT_EQ(daemon.stats().admitted, 0u);

    // Truncations of a valid request: every prefix is rejected and
    // none of them wedges the daemon for the intact request after.
    const std::string good = SmallTs1;
    for (size_t n = 0; n < good.size(); ++n) {
        const std::string reply =
            daemon.submit(good.substr(0, n)).wait();
        EXPECT_FALSE(replyOk(reply)) << "accepted prefix of " << n;
    }
    EXPECT_TRUE(replyOk(runToReply(daemon, good)))
        << "daemon wedged after the fuzz barrage";
}

TEST(Daemon, ChaosCrashRecoversToCleanRunBytes)
{
    // "Kill a worker mid-job": the deterministic chaos knob makes the
    // first attempt die with a WatchdogError at a scripted cycle; the
    // recoverable-run path retries from the newest checkpoint. The
    // recovered reply must be the clean daemon's bytes exactly —
    // attempts and resume provenance are not reply material.
    const std::string request =
        R"({"workloads":["ts1"],"instructions":6000,"warmup":1000})";

    const fs::path cleanRoot = scratchDir("svc_chaos_clean");
    svc::Daemon clean(daemonConfig(cleanRoot));
    const std::string cleanReply = runToReply(clean, request);
    ASSERT_TRUE(replyOk(cleanReply));

    const fs::path chaosRoot = scratchDir("svc_chaos");
    svc::DaemonConfig cfg = daemonConfig(chaosRoot);
    cfg.spoolDir = (chaosRoot / "spool").string();
    cfg.spoolEveryCycles = 8000;
    cfg.chaosCrashCycles = {20000};
    svc::Daemon chaotic(cfg);
    const std::string key = chaotic.keyFor(request);
    const fs::path spool = chaosRoot / "spool" / key;
    // The crash really happened: the spool holds checkpoints. A
    // successful job removes its spool before replying, so look from
    // the progress observer, which runs once the workload is done.
    bool sawProgress = false;
    auto spoolCheck = [&](const svc::json::Value &ev) {
        if (ev.find("event")->asString() != "progress")
            return;
        sawProgress = true;
        size_t checkpoints = 0;
        for (const auto &e : fs::directory_iterator(spool))
            checkpoints += e.path().extension() == ".ckpt";
        EXPECT_GE(checkpoints, 1u);
    };
    svc::JobHandle h = chaotic.submit(request, spoolCheck);
    while (chaotic.runQueuedOnce()) {
    }
    const std::string recovered = h.wait();
    ASSERT_TRUE(replyOk(recovered)) << recovered;

    EXPECT_EQ(cleanReply, recovered)
        << "crash recovery changed the reply bytes";
    EXPECT_TRUE(sawProgress);
    EXPECT_FALSE(fs::exists(spool))
        << "a successful job left its spool behind";
}

TEST(Daemon, MultiClientHammerBitIdenticalToSerial)
{
    // Distinct specs (different seeds) plus repeats, fired from many
    // client threads at a 2-worker daemon with single-flight and the
    // cache in play. Every reply must equal the one a serial daemon
    // produces for the same request.
    std::vector<std::string> requests;
    for (int seed = 1; seed <= 3; ++seed)
        requests.push_back(
            R"({"workloads":["ts1"],"instructions":2500,"warmup":500,)"
            R"("seed":)" + std::to_string(seed) + "}");

    const fs::path serialRoot = scratchDir("svc_hammer_serial");
    svc::Daemon serial(daemonConfig(serialRoot));
    std::map<std::string, std::string> expected;
    for (const std::string &r : requests)
        expected[r] = runToReply(serial, r);
    for (const auto &[r, reply] : expected)
        ASSERT_TRUE(replyOk(reply)) << r;

    const fs::path root = scratchDir("svc_hammer");
    svc::DaemonConfig cfg = daemonConfig(root);
    cfg.workers = 2;
    svc::Daemon daemon(cfg);

    constexpr int ClientsPerRequest = 4;
    std::vector<std::thread> clients;
    std::vector<std::string> got(requests.size() * ClientsPerRequest);
    for (size_t i = 0; i < got.size(); ++i)
        clients.emplace_back([&daemon, &requests, &got, i] {
            got[i] = daemon.submit(requests[i % requests.size()]).wait();
        });
    for (auto &t : clients)
        t.join();

    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], expected[requests[i % requests.size()]])
            << "client " << i;
    // At most one engine run per distinct spec, however the clients
    // raced (joins and hits absorb the rest).
    EXPECT_EQ(daemon.stats().engineRuns, requests.size());
}

TEST(Daemon, CacheOnlyNeverSimulates)
{
    const fs::path root = scratchDir("svc_fetch");
    svc::Daemon daemon(daemonConfig(root));

    const std::string fetch =
        R"({"workloads":["ts1"],"instructions":3000,"warmup":600,)"
        R"("cache_only":true})";
    const std::string miss = daemon.submit(fetch).wait();
    EXPECT_FALSE(replyOk(miss));
    EXPECT_EQ(errorType(miss), "CacheMiss");
    EXPECT_EQ(daemon.stats().engineRuns, 0u);

    // Populate via a normal submission (same key: cache_only is not
    // part of the address), then fetch serves the exact bytes.
    const std::string cold = runToReply(daemon, SmallTs1);
    ASSERT_TRUE(replyOk(cold));
    EXPECT_EQ(daemon.submit(fetch).wait(), cold);
    EXPECT_EQ(daemon.stats().engineRuns, 1u);
}

TEST(Daemon, CorruptCacheEntryHealsByRecompute)
{
    const fs::path root = scratchDir("svc_corrupt");
    svc::Daemon daemon(daemonConfig(root));

    const std::string cold = runToReply(daemon, SmallTs1);
    ASSERT_TRUE(replyOk(cold));
    const std::string key = daemon.keyFor(SmallTs1);

    // Flip one byte in the middle of the stored entry.
    const fs::path entry =
        root / "cache" / key.substr(0, 2) / key;
    ASSERT_TRUE(fs::exists(entry));
    {
        std::fstream f(entry,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(static_cast<std::streamoff>(fs::file_size(entry) / 2));
        char c;
        f.seekg(f.tellp());
        f.read(&c, 1);
        f.seekp(-1, std::ios::cur);
        c = static_cast<char>(c ^ 0x40);
        f.write(&c, 1);
    }

    // CRC catches it: miss, drop, recompute — same bytes again.
    const std::string healed = runToReply(daemon, SmallTs1);
    EXPECT_EQ(cold, healed);
    EXPECT_EQ(daemon.stats().engineRuns, 2u)
        << "corrupt entry was served instead of recomputed";
    EXPECT_EQ(daemon.cacheStats().corruptDropped, 1u);
}

TEST(ResultCache, LruEvictionUnderByteBudget)
{
    const fs::path root = scratchDir("svc_lru");
    const std::string value(1000, 'x');

    // Budget fits roughly two entries (payload + container overhead).
    svc::ResultCache cache((root / "c").string(), 2300);
    const std::string k1(64, '1'), k2(64, '2'), k3(64, '3');
    cache.put(k1, value);
    cache.put(k2, value);
    ASSERT_TRUE(cache.get(k1).has_value());
    ASSERT_TRUE(cache.get(k2).has_value());
    EXPECT_EQ(cache.stats().evictions, 0u);

    // Touch k1 so k2 is the LRU victim when k3 lands.
    ASSERT_TRUE(cache.get(k1).has_value());
    cache.put(k3, value);
    EXPECT_TRUE(cache.get(k1).has_value());
    EXPECT_TRUE(cache.get(k3).has_value());
    EXPECT_FALSE(cache.get(k2).has_value()) << "LRU picked wrong victim";
    EXPECT_GE(cache.stats().evictions, 1u);
    EXPECT_LE(cache.stats().bytes, 2300u);

    // An entry larger than the whole budget is still stored (a cache
    // that refuses its only entry would never hit) but alone.
    cache.put(std::string(64, '4'), std::string(4000, 'y'));
    EXPECT_TRUE(cache.get(std::string(64, '4')).has_value());
    EXPECT_FALSE(cache.get(k1).has_value());
    EXPECT_FALSE(cache.get(k3).has_value());
}

TEST(Daemon, ErrorRepliesCarryTheSimErrorType)
{
    EXPECT_EQ(svc::errorTypeName(ConfigError("x")), "ConfigError");
    EXPECT_EQ(svc::errorTypeName(GuestError("x")), "GuestError");
    EXPECT_EQ(svc::errorTypeName(WatchdogError("x")), "WatchdogError");
    EXPECT_EQ(svc::errorTypeName(AuditError("x")), "AuditError");
    EXPECT_EQ(svc::errorTypeName(SnapshotError("x")), "SnapshotError");
    EXPECT_EQ(svc::errorTypeName(LintError("x")), "LintError");

    const std::string reply = svc::errorReply("ConfigError", "why \"q\"");
    const svc::json::Value v = svc::json::parse(reply);
    EXPECT_FALSE(v.find("ok")->asBool());
    EXPECT_EQ(v.find("error")->find("type")->asString(), "ConfigError");
    EXPECT_EQ(v.find("error")->find("message")->asString(),
              "why \"q\"");
}
