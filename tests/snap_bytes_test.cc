/**
 * @file
 * Byte-identity tests for the checkpoint write path: the CRC-32
 * against a bit-at-a-time reference, the memory image encoding
 * against a byte-scanning reference encoder, the streamed
 * SnapshotWriter::writeFile against finish(), and the SHA-256 of one
 * paper workload's mid-run checkpoint pinned under tests/golden/. A
 * faster encoder may change how the bytes are produced, never which
 * bytes come out.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/serial.hh"
#include "mem/memory.hh"
#include "obs/counters.hh"
#include "obs/hostprof.hh"
#include "sim/experiment.hh"
#include "sim/run.hh"
#include "snap/snapshot.hh"
#include "svc/sha256.hh"
#include "workload/profile.hh"

#ifndef UPC780_GOLDEN_DIR
#error "UPC780_GOLDEN_DIR must point at tests/golden"
#endif

using namespace upc780;
namespace fs = std::filesystem;

namespace
{

/** CRC-32 (reflected 0xEDB88320) one bit at a time: no tables, so it
 *  shares nothing with the implementation under test. */
uint32_t
crcBitwise(const uint8_t *p, size_t n, uint32_t seed)
{
    uint32_t c = ~seed;
    for (size_t i = 0; i < n; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return ~c;
}

/** The memory encoding spelled out byte by byte: u32 size, u32
 *  non-zero page count, then (u32 index, page bytes) per non-zero
 *  4 KB page, the last page possibly short. */
std::vector<uint8_t>
referenceMemoryEncoding(const mem::PhysicalMemory &m)
{
    constexpr uint32_t Page = 4096;
    const uint32_t size = m.size();
    const uint32_t pages = (size + Page - 1) / Page;
    std::vector<uint32_t> nonzero;
    for (uint32_t p = 0; p < pages; ++p) {
        const uint32_t end = std::min(size, (p + 1) * Page);
        for (uint32_t a = p * Page; a < end; ++a)
            if (m.readByte(a) != 0) {
                nonzero.push_back(p);
                break;
            }
    }
    ByteWriter w;
    w.u32(size);
    w.u32(static_cast<uint32_t>(nonzero.size()));
    for (uint32_t p : nonzero) {
        w.u32(p);
        const uint32_t end = std::min(size, (p + 1) * Page);
        for (uint32_t a = p * Page; a < end; ++a)
            w.u8(m.readByte(a));
    }
    return w.take();
}

std::vector<uint8_t>
encode(const mem::PhysicalMemory &m)
{
    ByteWriter w;
    m.serialize(w);
    return w.take();
}

std::vector<uint8_t>
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
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

TEST(SnapCrc, KnownAnswer)
{
    const std::string check = "123456789";
    const auto *p = reinterpret_cast<const uint8_t *>(check.data());
    EXPECT_EQ(crc32(p, check.size()), 0xCBF43926u);
    EXPECT_EQ(crc32(p, 0), 0u);
    EXPECT_EQ(crc32(nullptr, 0, 0x12345678u), 0x12345678u);
}

TEST(SnapCrc, MatchesBitwiseReferenceOnRandomSlices)
{
    Rng rng(0xC4C32);
    std::vector<uint8_t> buf(4096 + 64);
    for (uint8_t &b : buf)
        b = static_cast<uint8_t>(rng.next());

    // Random offsets exercise every alignment of the 8-byte loads;
    // random lengths every tail length; random seeds the chaining.
    for (int i = 0; i < 20000; ++i) {
        const size_t off = rng.below(64);
        const size_t len = rng.below(buf.size() - off + 1);
        const uint32_t seed =
            rng.chance(0.5) ? 0u : static_cast<uint32_t>(rng.next());
        ASSERT_EQ(crc32(buf.data() + off, len, seed),
                  crcBitwise(buf.data() + off, len, seed))
            << "offset " << off << " length " << len << " seed " << seed;
    }

    // Chaining: the CRC of a whole buffer equals the CRC of its
    // pieces, each seeded with the previous piece's CRC.
    for (int i = 0; i < 2000; ++i) {
        const size_t len = rng.below(buf.size() + 1);
        const size_t cut = rng.below(len + 1);
        const uint32_t whole = crc32(buf.data(), len);
        const uint32_t head = crc32(buf.data(), cut);
        ASSERT_EQ(crc32(buf.data() + cut, len - cut, head), whole)
            << "length " << len << " cut at " << cut;
    }
}

TEST(SnapMemory, EncodingMatchesReferenceEncoder)
{
    constexpr uint32_t Page = 4096;
    // The default 8 MB image plus a size with a trailing partial page
    // (PhysicalMemory takes any non-zero size).
    for (const uint32_t size :
         {mem::PhysicalMemory::DefaultSize, 16 * Page + 100}) {
        const uint32_t pages = (size + Page - 1) / Page;
        mem::PhysicalMemory m(size);
        EXPECT_EQ(encode(m), referenceMemoryEncoding(m))
            << "all-zero image of " << size << " bytes";

        // One non-zero byte at a page's last offset.
        m.writeByte(3 * Page + Page - 1, 0x5a);
        EXPECT_EQ(encode(m), referenceMemoryEncoding(m))
            << "last-offset byte, " << size << " bytes";

        // And at a page's first offset, and the image's last byte
        // (inside the partial page when there is one).
        m.writeByte(7 * Page, 0x01);
        m.writeByte(size - 1, 0x80);
        EXPECT_EQ(encode(m), referenceMemoryEncoding(m))
            << "first-offset and last-byte, " << size << " bytes";

        // A sparse random pattern, then its round trip.
        Rng rng(size);
        for (int i = 0; i < 64; ++i)
            m.writeByte(static_cast<uint32_t>(rng.below(size)),
                        static_cast<uint8_t>(rng.below(255) + 1));
        const std::vector<uint8_t> bytes = encode(m);
        EXPECT_EQ(bytes, referenceMemoryEncoding(m))
            << "random pattern, " << size << " bytes";

        mem::PhysicalMemory back(size);
        ByteReader r(bytes);
        back.deserialize(r);
        r.expectEnd("memory");
        EXPECT_EQ(encode(back), bytes);
        EXPECT_LE(bytes.size(), 8 + size_t{pages} * (4 + Page));
    }
}

TEST(SnapContainer, WriteFileEqualsFinish)
{
    snap::SnapshotMeta meta;
    meta.kind = snap::SnapshotKind::Checkpoint;
    meta.workload = "ts1";
    meta.configHash = 0xfeedfacecafebeefull;
    meta.cycle = 30000;
    meta.instructions = 1234;
    meta.attempt = 1;

    Rng rng(7);
    snap::SnapshotWriter w(meta);
    // Sections of assorted sizes, an empty one and one large enough
    // to span many stream buffers among them.
    for (size_t n : {size_t{0}, size_t{1}, size_t{4095}, size_t{1} << 20,
                     size_t{13}}) {
        ByteWriter payload;
        for (size_t i = 0; i < n; ++i)
            payload.u8(static_cast<uint8_t>(rng.next()));
        w.add("section" + std::to_string(n), std::move(payload));
    }

    const fs::path dir = scratchDir("snap_writefile");
    const fs::path path = dir / "nested" / "x.ckpt";
    w.writeFile(path.string());
    const std::vector<uint8_t> finished = w.finish();
    EXPECT_EQ(readFile(path), finished);
    EXPECT_FALSE(fs::exists(path.string() + ".tmp"));
    EXPECT_NO_THROW(snap::SnapshotReader::fromFile(path.string()));

    // An empty container too.
    snap::SnapshotWriter empty(meta);
    const fs::path emptyPath = dir / "empty.ckpt";
    empty.writeFile(emptyPath.string());
    EXPECT_EQ(readFile(emptyPath), empty.finish());
}

TEST(SnapGolden, MidRunCheckpointBytesArePinned)
{
#if !UPC780_OBS_ENABLED
    GTEST_SKIP() << "the pinned checkpoint carries obs counter values; "
                    "this build compiles the obs layer out";
#endif
    // A ts1 checkpoint at cycle 30000 under a small fixed budget. The
    // runner section ends with host wall-clock nanoseconds (one u64
    // per HostProfile phase), which no two runs share; those bytes
    // are masked and every other byte of the body is pinned.
    const fs::path dir = scratchDir("snap_golden");
    sim::ExperimentConfig cfg;
    cfg.instructionsPerWorkload = 8000;
    cfg.warmupInstructions = 1600;
    cfg.checkpoint.dir = dir.string();
    cfg.checkpoint.atCycles = {30000};
    sim::WorkloadRun run(cfg, wkl::timesharing1Profile());
    ASSERT_TRUE(run.run().ok);

    const std::string path =
        snap::latestCheckpoint(cfg.checkpoint.dir, run.taskId());
    ASSERT_FALSE(path.empty());
    const std::vector<uint8_t> file = readFile(path);
    const snap::SnapshotReader reader(file);
    ASSERT_EQ(reader.meta().cycle, 30000u);
    ASSERT_EQ(reader.names().back(), "runner");

    // The stored CRC is the reference CRC of everything before it.
    const size_t body = file.size() - 4;
    const uint32_t stored = uint32_t{file[body]} |
                            uint32_t{file[body + 1]} << 8 |
                            uint32_t{file[body + 2]} << 16 |
                            uint32_t{file[body + 3]} << 24;
    EXPECT_EQ(stored, crcBitwise(file.data(), body, 0));

    std::vector<uint8_t> masked(file.begin(), file.begin() + body);
    const size_t hostBytes = obs::HostProfile{}.ns.size() * 8;
    std::fill(masked.end() - static_cast<std::ptrdiff_t>(hostBytes),
              masked.end(), 0);

    std::ifstream in(fs::path(UPC780_GOLDEN_DIR) /
                     "checkpoint_ts1_c30000.sha256");
    ASSERT_TRUE(in.good()) << "golden checkpoint digest is missing";
    std::string pinned;
    in >> pinned;
    EXPECT_EQ(svc::sha256Hex(masked), pinned)
        << "checkpoint bytes drifted from the pinned format ("
        << file.size() << " bytes)";
}
