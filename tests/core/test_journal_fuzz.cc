/**
 * @file
 * Seeded mutation sweep of journal recovery (ctest label "fuzz").
 *
 * A small real journal — two batch groups and a checkpoint, written by
 * MeasurementJournal — is mutated four ways: every single-bit flip,
 * splices with a second journal at every pair of record-region
 * offsets, lying length fields, and CRC-valid records with random
 * payloads. For every mutant, recoverJournal must not crash and must
 * not throw (its only refusal is JournalRecovery::error), and what it
 * returns must equal the group-commit reading of the record stream the
 * mutant holds, computed here by readGroups(), an independent model
 * of the file format in journal.hh.
 *
 * For damage (bit flips, lying lengths, splices that cut a record)
 * that reading is a prefix of the original batches, and the tests
 * check that too. A CRC-valid record is indistinguishable from a
 * written one, so for forged records and record-aligned splices the
 * reading may differ from the original; replay's per-index key-hash
 * check is what refuses such a journal later.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/journal.hh"
#include "core/topology.hh"
#include "stats/rng.hh"

namespace
{

using namespace statsched;
using core::CheckpointKind;
using core::JournalBatch;
using core::JournalCheckpoint;
using core::JournalHeader;
using core::JournalMeasurement;
using core::JournalRecovery;
using core::MeasurementJournal;
using core::MeasurementOutcome;
using core::MeasureStatus;

using Bytes = std::vector<std::uint8_t>;

/** On-disk record tags and payload sizes (journal.hh file format). */
constexpr std::uint8_t kBatchBegin = 1;
constexpr std::uint8_t kMeasurement = 2;
constexpr std::uint8_t kCheckpoint = 3;
constexpr std::size_t kBatchBeginSize = 8;
constexpr std::size_t kMeasurementSize = 21;
constexpr std::size_t kCheckpointSize = 29;

/** One framed record: type:u8 size:u16 payload crc:u32. */
struct Frame
{
    std::uint8_t type = 0;
    Bytes payload;

    std::size_t bytes() const { return 3 + payload.size() + 4; }
};

std::uint64_t
readLe(const Bytes &bytes, std::size_t at, int width)
{
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i)
        v |= static_cast<std::uint64_t>(bytes[at + i]) << (8 * i);
    return v;
}

void
writeLe(Bytes &bytes, std::size_t at, std::uint64_t v, int width)
{
    for (int i = 0; i < width; ++i)
        bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/** @return the frame's bytes with a valid CRC. */
Bytes
encode(const Frame &frame)
{
    Bytes out(3 + frame.payload.size());
    out[0] = frame.type;
    writeLe(out, 1, frame.payload.size(), 2);
    std::copy(frame.payload.begin(), frame.payload.end(),
              out.begin() + 3);
    const std::uint32_t crc = core::journalCrc32(out.data(), out.size());
    out.resize(out.size() + 4);
    writeLe(out, out.size() - 4, crc, 4);
    return out;
}

/**
 * @return the CRC-valid records of `file` after its header, up to the
 *         first torn or corrupt one (the framing rule of journal.hh).
 */
std::vector<Frame>
framesOf(const Bytes &file, std::size_t headerBytes)
{
    std::vector<Frame> frames;
    for (std::size_t at = headerBytes; file.size() - at >= 7;) {
        const std::size_t size = readLe(file, at + 1, 2);
        if (file.size() - at < 7 + size ||
            core::journalCrc32(file.data() + at, 3 + size) !=
                readLe(file, at + 3 + size, 4))
            break;
        Frame frame;
        frame.type = file[at];
        frame.payload.assign(
            file.begin() + static_cast<std::ptrdiff_t>(at + 3),
            file.begin() + static_cast<std::ptrdiff_t>(at + 3 + size));
        at += frame.bytes();
        frames.push_back(std::move(frame));
    }
    return frames;
}

/** A journal file split into its header and its records. */
struct Journal
{
    Bytes header;
    std::vector<Frame> frames;

    Bytes
    file() const
    {
        Bytes out = header;
        for (const Frame &frame : frames) {
            const Bytes encoded = encode(frame);
            out.insert(out.end(), encoded.begin(), encoded.end());
        }
        return out;
    }

    /** @return byte offset at which frame `index` starts. */
    std::size_t
    offsetOf(std::size_t index) const
    {
        std::size_t at = header.size();
        for (std::size_t i = 0; i < index; ++i)
            at += frames[i].bytes();
        return at;
    }
};

/** What recovery must return for a given record stream. */
struct Reading
{
    std::vector<JournalBatch> batches;
    std::size_t checkpoints = 0;
    std::uint64_t validBytes = 0;
};

/**
 * Group-commit reading of a record stream: a batch group is one
 * BatchBegin with a non-zero count followed by exactly that many
 * Measurements; a Checkpoint sits between groups. Reading stops at
 * the first record that breaks these rules, and the trusted prefix
 * ends at the last complete group or checkpoint.
 */
Reading
readGroups(std::size_t headerBytes, const std::vector<Frame> &frames)
{
    constexpr auto kMaxStatus =
        static_cast<std::uint8_t>(MeasureStatus::Quarantined);
    constexpr auto kMaxKind =
        static_cast<std::uint8_t>(CheckpointKind::Aborted);
    Reading reading;
    reading.validBytes = headerBytes;
    std::uint64_t offset = headerBytes;
    std::optional<JournalBatch> open;
    std::uint64_t remaining = 0;
    for (const Frame &frame : frames) {
        const Bytes &p = frame.payload;
        if (frame.type == kBatchBegin && p.size() == kBatchBeginSize &&
            !open && readLe(p, 4, 4) != 0) {
            open = JournalBatch();
            open->round = static_cast<std::uint32_t>(readLe(p, 0, 4));
            remaining = readLe(p, 4, 4);
        } else if (frame.type == kMeasurement &&
                   p.size() == kMeasurementSize && open &&
                   p[16] <= kMaxStatus) {
            JournalMeasurement m;
            m.keyHash = readLe(p, 0, 8);
            m.outcome.value = std::bit_cast<double>(readLe(p, 8, 8));
            m.outcome.status = static_cast<MeasureStatus>(p[16]);
            m.outcome.attempts =
                static_cast<std::uint32_t>(readLe(p, 17, 4));
            open->measurements.push_back(m);
            if (--remaining == 0) {
                reading.batches.push_back(std::move(*open));
                open.reset();
            }
        } else if (frame.type == kCheckpoint &&
                   p.size() == kCheckpointSize && !open &&
                   p[0] <= kMaxKind) {
            ++reading.checkpoints;
        } else {
            break;
        }
        offset += frame.bytes();
        if (!open)
            reading.validBytes = offset;
    }
    return reading;
}

bool
sameBatch(const JournalBatch &a, const JournalBatch &b)
{
    if (a.round != b.round ||
        a.measurements.size() != b.measurements.size())
        return false;
    for (std::size_t i = 0; i < a.measurements.size(); ++i) {
        const MeasurementOutcome &x = a.measurements[i].outcome;
        const MeasurementOutcome &y = b.measurements[i].outcome;
        if (a.measurements[i].keyHash != b.measurements[i].keyHash ||
            std::bit_cast<std::uint64_t>(x.value) !=
                std::bit_cast<std::uint64_t>(y.value) ||
            x.status != y.status || x.attempts != y.attempts)
            return false;
    }
    return true;
}

bool
isPrefixOf(const std::vector<JournalBatch> &prefix,
           const std::vector<JournalBatch> &whole)
{
    if (prefix.size() > whole.size())
        return false;
    for (std::size_t i = 0; i < prefix.size(); ++i) {
        if (!sameBatch(prefix[i], whole[i]))
            return false;
    }
    return true;
}

MeasurementOutcome
outcome(double value, MeasureStatus status, std::uint32_t attempts)
{
    MeasurementOutcome o;
    o.value = value;
    o.status = status;
    o.attempts = attempts;
    return o;
}

class JournalFuzz : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const std::string stem =
            (std::filesystem::temp_directory_path() /
             ("statsched_journal_fuzz_" +
              std::string(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name())))
                .string();
        path_ = stem + ".journal";
        original_ = writeOriginal(stem + ".a");
        other_ = writeOther(stem + ".b");
        originalBatches_ = core::recoverJournal(stem + ".a").batches;
        std::filesystem::remove(stem + ".a");
        std::filesystem::remove(stem + ".b");
        ASSERT_EQ(originalBatches_.size(), 2u);
    }

    void TearDown() override { std::filesystem::remove(path_); }

    /** The journal under test: two batch groups and a checkpoint. */
    static Journal
    writeOriginal(const std::string &path)
    {
        {
            MeasurementJournal journal(
                path, JournalHeader::forCampaign(
                          core::Topology::ultraSparcT2(), 24, 7, 0xabc));
            journal.beginBatch(0, 2);
            journal.appendMeasurement(
                11, outcome(1.5e6, MeasureStatus::Ok, 1));
            journal.appendMeasurement(
                22, outcome(2.5e6, MeasureStatus::Ok, 3));
            journal.sync();
            JournalCheckpoint checkpoint;
            checkpoint.round = 1;
            checkpoint.attempted = 2;
            checkpoint.sampled = 2;
            checkpoint.best = 2.5e6;
            journal.appendCheckpoint(checkpoint);
            journal.beginBatch(1, 1);
            journal.appendMeasurement(
                33, outcome(0.0, MeasureStatus::TimedOut, 2));
            journal.sync();
        }
        return split(path);
    }

    /** A second journal with other groups, for splicing. */
    static Journal
    writeOther(const std::string &path)
    {
        {
            MeasurementJournal journal(
                path, JournalHeader::forCampaign(
                          core::Topology::ultraSparcT2(), 24, 8, 0xdef));
            journal.beginBatch(0, 3);
            for (std::uint64_t k = 0; k < 3; ++k)
                journal.appendMeasurement(
                    101 + k, outcome(3e6 + k, MeasureStatus::Ok, 1));
            JournalCheckpoint checkpoint;
            checkpoint.kind = CheckpointKind::Aborted;
            journal.appendCheckpoint(checkpoint);
            journal.beginBatch(1, 1);
            journal.appendMeasurement(
                201, outcome(0.0, MeasureStatus::Invalid, 4));
            journal.beginBatch(2, 2);
            journal.appendMeasurement(
                301, outcome(4e6, MeasureStatus::Ok, 1));
            journal.appendMeasurement(
                302, outcome(5e6, MeasureStatus::Ok, 2));
            journal.sync();
        }
        return split(path);
    }

    /** Reads a written journal back as header plus frames. */
    static Journal
    split(const std::string &path)
    {
        const std::size_t size = std::filesystem::file_size(path);
        Bytes file(size);
        std::ifstream in(path, std::ios::binary);
        in.read(reinterpret_cast<char *>(file.data()),
                static_cast<std::streamsize>(size));
        // The header is the one fixed-size block before the records.
        Journal journal;
        const std::size_t headerBytes = 4 + 4 + 8 + 4 * 4 + 8 + 4;
        journal.header.assign(file.begin(), file.begin() + headerBytes);
        journal.frames = framesOf(file, headerBytes);
        EXPECT_EQ(journal.file(), file) << "journal re-encodes exactly";
        return journal;
    }

    /** Recovers `file`; records a failure if recovery throws. */
    std::optional<JournalRecovery>
    recover(const Bytes &file, const std::string &what)
    {
        {
            std::ofstream out(path_, std::ios::binary | std::ios::trunc);
            out.write(reinterpret_cast<const char *>(file.data()),
                      static_cast<std::streamsize>(file.size()));
        }
        try {
            return core::recoverJournal(path_);
        } catch (const std::exception &e) {
            ADD_FAILURE() << what << ": recovery threw: " << e.what();
        } catch (...) {
            ADD_FAILURE() << what << ": recovery threw";
        }
        return std::nullopt;
    }

    /** Recovery must refuse `file` through its error field. */
    void
    expectRefused(const Bytes &file, const std::string &what)
    {
        const std::optional<JournalRecovery> r = recover(file, what);
        if (!r)
            return;
        EXPECT_FALSE(r->error.empty()) << what;
        EXPECT_TRUE(r->batches.empty()) << what;
    }

    /** Recovery must return exactly `want`. @return the batches. */
    std::vector<JournalBatch>
    expectReading(const Bytes &file, const Reading &want,
                  const std::string &what)
    {
        const std::optional<JournalRecovery> r = recover(file, what);
        if (!r)
            return {};
        EXPECT_TRUE(r->error.empty()) << what << ": " << r->error;
        EXPECT_EQ(r->validBytes, want.validBytes) << what;
        EXPECT_EQ(r->validBytes + r->truncatedBytes, file.size())
            << what;
        EXPECT_EQ(r->checkpoints.size(), want.checkpoints) << what;
        EXPECT_EQ(r->batches.size(), want.batches.size()) << what;
        EXPECT_TRUE(isPrefixOf(r->batches, want.batches)) << what;
        return r->batches;
    }

    /** Damage: recovery returns the reading of the first `frames`
     *  records, a prefix of the original batches. */
    void
    expectPrefix(const Bytes &file, std::size_t frames,
                 const std::string &what)
    {
        const std::vector<Frame> kept(
            original_.frames.begin(),
            original_.frames.begin() +
                static_cast<std::ptrdiff_t>(frames));
        const std::vector<JournalBatch> batches = expectReading(
            file, readGroups(original_.header.size(), kept), what);
        EXPECT_TRUE(isPrefixOf(batches, originalBatches_)) << what;
    }

    std::string path_;
    Journal original_;
    Journal other_;
    std::vector<JournalBatch> originalBatches_;
};

TEST_F(JournalFuzz, EverySingleBitFlip)
{
    const Bytes file = original_.file();
    std::size_t frame = 0;
    for (std::size_t at = 0; at < file.size() && !HasFailure(); ++at) {
        while (frame + 1 < original_.frames.size() &&
               original_.offsetOf(frame + 1) <= at)
            ++frame;
        for (int bit = 0; bit < 8; ++bit) {
            Bytes mutant = file;
            mutant[at] ^= static_cast<std::uint8_t>(1u << bit);
            const std::string what = "flip of bit " +
                std::to_string(bit) + " at byte " + std::to_string(at);
            if (at < original_.header.size())
                expectRefused(mutant, what);
            else
                expectPrefix(mutant, frame, what);
        }
    }
}

TEST_F(JournalFuzz, SplicesOfTwoJournals)
{
    // original[0, i) + other[j, end) for every pair of record-region
    // offsets. Where the junction forms whole records (both cuts on
    // record boundaries, or the cut record's bytes matching the other
    // journal's) the file is a well-formed record stream; elsewhere
    // the junction record is torn and recovery must stop before it.
    const Bytes a = original_.file();
    const Bytes b = other_.file();
    const std::size_t headerBytes = original_.header.size();
    std::size_t wellFormed = 0;
    std::size_t torn = 0;
    std::size_t whole = 0; // original records wholly before the cut
    for (std::size_t i = headerBytes; i <= a.size() && !HasFailure();
         ++i) {
        while (whole < original_.frames.size() &&
               original_.offsetOf(whole + 1) <= i)
            ++whole;
        const Reading before = readGroups(
            headerBytes,
            std::vector<Frame>(original_.frames.begin(),
                               original_.frames.begin() +
                                   static_cast<std::ptrdiff_t>(whole)));
        for (std::size_t j = headerBytes; j <= b.size(); ++j) {
            Bytes mutant(a.begin(),
                         a.begin() + static_cast<std::ptrdiff_t>(i));
            mutant.insert(mutant.end(),
                          b.begin() + static_cast<std::ptrdiff_t>(j),
                          b.end());
            const std::string what = "splice at " + std::to_string(i) +
                " / " + std::to_string(j);
            const std::vector<Frame> stream =
                framesOf(mutant, headerBytes);
            ++(stream.size() > whole ? wellFormed : torn);
            const std::vector<JournalBatch> batches = expectReading(
                mutant, readGroups(headerBytes, stream), what);
            // Whatever follows the cut, the groups before it survive.
            EXPECT_TRUE(isPrefixOf(before.batches, batches)) << what;
            if (stream.size() <= whole) {
                EXPECT_TRUE(isPrefixOf(batches, originalBatches_))
                    << what;
            }
        }
    }
    EXPECT_GT(wellFormed, 0u);
    EXPECT_GT(torn, 0u);
}

TEST_F(JournalFuzz, LyingLengthFields)
{
    const Bytes file = original_.file();
    for (std::size_t r = 0; r < original_.frames.size(); ++r) {
        const std::size_t at = original_.offsetOf(r);
        const std::string where = " in record " + std::to_string(r);

        // Record size field, CRC left as written: 0 and beyond EOF.
        for (const std::uint64_t size : {std::uint64_t{0},
                                         std::uint64_t{0xffff}}) {
            Bytes mutant = file;
            writeLe(mutant, at + 1, size, 2);
            expectPrefix(mutant, r,
                         "size " + std::to_string(size) + where);
        }
        // A CRC-valid frame that claims an empty payload, with the
        // old payload bytes left behind it.
        {
            Bytes mutant(file.begin(),
                         file.begin() + static_cast<std::ptrdiff_t>(at));
            const Bytes empty = encode(Frame{original_.frames[r].type, {}});
            mutant.insert(mutant.end(), empty.begin(), empty.end());
            mutant.insert(mutant.end(),
                          file.begin() +
                              static_cast<std::ptrdiff_t>(at + 3),
                          file.end());
            expectPrefix(mutant, r, "CRC-valid empty frame" + where);
        }
        if (original_.frames[r].type != kBatchBegin)
            continue;
        // Group count: 0 and more than the file could hold, both with
        // the CRC left stale and with it recomputed.
        for (const std::uint64_t count :
             {std::uint64_t{0}, std::uint64_t{file.size() + 1},
              std::uint64_t{0xffffffff}}) {
            Bytes stale = file;
            writeLe(stale, at + 3 + 4, count, 4);
            expectPrefix(stale, r,
                         "stale-CRC count " + std::to_string(count) +
                             where);

            Journal forged = original_;
            writeLe(forged.frames[r].payload, 4, count, 4);
            expectPrefix(forged.file(), r,
                         "CRC-valid count " + std::to_string(count) +
                             where);
        }
    }
}

TEST_F(JournalFuzz, CrcValidRecordsWithRandomPayloads)
{
    stats::Rng rng(20260419);
    const std::size_t sizes[] = {kBatchBeginSize, kMeasurementSize,
                                 kCheckpointSize};
    for (int trial = 0; trial < 3000 && !HasFailure(); ++trial) {
        Journal forged = original_;
        std::size_t touched = 0;
        if (rng.uniformInt(2) == 0) {
            // Re-randomize one record's payload, same type and size.
            touched = rng.uniformInt(forged.frames.size());
            for (std::uint8_t &byte : forged.frames[touched].payload)
                byte = static_cast<std::uint8_t>(rng.uniformInt(256));
        } else {
            // Insert a forged record at any record boundary: a known
            // type at its exact size half the time, else anything.
            Frame frame;
            const std::size_t kind = rng.uniformInt(3);
            const bool wellFramed = rng.uniformInt(2) == 0;
            frame.type = wellFramed
                ? static_cast<std::uint8_t>(kind + 1)
                : static_cast<std::uint8_t>(rng.uniformInt(256));
            frame.payload.resize(wellFramed ? sizes[kind]
                                            : rng.uniformInt(40));
            for (std::uint8_t &byte : frame.payload)
                byte = static_cast<std::uint8_t>(rng.uniformInt(256));
            touched = rng.uniformInt(forged.frames.size() + 1);
            forged.frames.insert(
                forged.frames.begin() +
                    static_cast<std::ptrdiff_t>(touched),
                frame);
        }
        // Steer the fields recovery validates into range half the
        // time, so accepting paths are exercised as well as refusals.
        Frame &frame = forged.frames[touched];
        if (rng.uniformInt(2) == 0 && frame.type == kBatchBegin &&
            frame.payload.size() == kBatchBeginSize)
            writeLe(frame.payload, 4, rng.uniformInt(4), 4);
        if (rng.uniformInt(2) == 0 && frame.type == kMeasurement &&
            frame.payload.size() == kMeasurementSize)
            frame.payload[16] = static_cast<std::uint8_t>(
                rng.uniformInt(5));
        if (rng.uniformInt(2) == 0 && frame.type == kCheckpoint &&
            frame.payload.size() == kCheckpointSize)
            frame.payload[0] = static_cast<std::uint8_t>(
                rng.uniformInt(3));

        const std::string what = "forged record " +
            std::to_string(touched) + " in trial " +
            std::to_string(trial);
        const std::vector<JournalBatch> batches = expectReading(
            forged.file(),
            readGroups(forged.header.size(), forged.frames), what);
        // Groups completed before the forged record are untouched.
        const Reading before = readGroups(
            original_.header.size(),
            std::vector<Frame>(original_.frames.begin(),
                               original_.frames.begin() +
                                   static_cast<std::ptrdiff_t>(
                                       touched)));
        EXPECT_TRUE(isPrefixOf(before.batches, batches)) << what;
    }
}

} // anonymous namespace
