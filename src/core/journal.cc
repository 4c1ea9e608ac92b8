/**
 * @file
 * Measurement journal implementation.
 */

#include "core/journal.hh"

#include <array>
#include <cstring>
#include <utility>

#include "base/check.hh"
#include "base/logging.hh"

namespace statsched
{
namespace core
{

namespace
{

/** Record type tags (on-disk; never renumber). */
constexpr std::uint8_t kRecordBatchBegin = 1;
constexpr std::uint8_t kRecordMeasurement = 2;
constexpr std::uint8_t kRecordCheckpoint = 3;

constexpr std::array<char, 4> kMagic = {'S', 'J', 'N', 'L'};

/** Fixed payload sizes per record type. */
constexpr std::size_t kBatchBeginSize = 4 + 4;
constexpr std::size_t kMeasurementSize = 8 + 8 + 1 + 4;
constexpr std::size_t kCheckpointSize = 1 + 4 + 8 + 8 + 8;

/** Header: magic + version + identity payload + crc. */
constexpr std::size_t kHeaderSize =
    4 + 4 + 8 + 4 * 4 + 8 + 4;

/** Little-endian serialization cursor over a byte buffer. */
class ByteWriter
{
  public:
    explicit ByteWriter(std::vector<std::uint8_t> &out) : out_(out) {}

    void
    u8(std::uint8_t v)
    {
        out_.push_back(v);
    }

    void
    u16(std::uint16_t v)
    {
        for (int i = 0; i < 2; ++i)
            out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

  private:
    std::vector<std::uint8_t> &out_;
};

/** Little-endian deserialization cursor with bounds checking. */
class ByteReader
{
  public:
    ByteReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {}

    std::size_t remaining() const { return size_ - pos_; }

    std::uint8_t
    u8()
    {
        SCHED_REQUIRE(remaining() >= 1, "journal read out of bounds");
        return data_[pos_++];
    }

    std::uint16_t
    u16()
    {
        SCHED_REQUIRE(remaining() >= 2, "journal read out of bounds");
        std::uint16_t v = 0;
        for (int i = 0; i < 2; ++i)
            v |= static_cast<std::uint16_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    std::uint32_t
    u32()
    {
        SCHED_REQUIRE(remaining() >= 4, "journal read out of bounds");
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        SCHED_REQUIRE(remaining() >= 8, "journal read out of bounds");
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

  private:
    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/** Serializes the header (everything but nothing missing: magic,
 *  version, identity, trailing crc). */
std::vector<std::uint8_t>
serializeHeader(const JournalHeader &header)
{
    std::vector<std::uint8_t> bytes;
    bytes.reserve(kHeaderSize);
    ByteWriter w(bytes);
    for (char c : kMagic)
        w.u8(static_cast<std::uint8_t>(c));
    w.u32(kJournalVersion);
    w.u64(header.seed);
    w.u32(header.cores);
    w.u32(header.pipesPerCore);
    w.u32(header.strandsPerPipe);
    w.u32(header.tasks);
    w.u64(header.configHash);
    w.u32(journalCrc32(bytes.data(), bytes.size()));
    SCHED_ENSURE(bytes.size() == kHeaderSize,
                 "journal header size drifted from the format");
    return bytes;
}

/**
 * Validates the bytes of a journal file into `recovery`: header,
 * then records with group-commit semantics (validBytes only advances
 * at complete batch groups and checkpoints).
 */
void
scanJournal(const std::vector<std::uint8_t> &bytes,
            JournalRecovery &scan)
{
    // Header: fixed size, trailing CRC over everything before it. A
    // bad header means the file is not ours (or the very first write
    // was torn) — unusable either way.
    if (bytes.size() < kHeaderSize) {
        scan.error = "journal shorter than its header";
        return;
    }
    {
        ByteReader r(bytes.data(), kHeaderSize);
        bool magicOk = true;
        for (char c : kMagic)
            magicOk &= r.u8() == static_cast<std::uint8_t>(c);
        if (!magicOk) {
            scan.error = "journal magic mismatch";
            return;
        }
        const std::uint32_t version = r.u32();
        if (version != kJournalVersion) {
            scan.error = "unsupported journal version " +
                std::to_string(version);
            return;
        }
        scan.header.seed = r.u64();
        scan.header.cores = r.u32();
        scan.header.pipesPerCore = r.u32();
        scan.header.strandsPerPipe = r.u32();
        scan.header.tasks = r.u32();
        scan.header.configHash = r.u64();
        const std::uint32_t storedCrc = r.u32();
        const std::uint32_t computedCrc =
            journalCrc32(bytes.data(), kHeaderSize - 4);
        if (storedCrc != computedCrc) {
            scan.error = "journal header checksum mismatch";
            return;
        }
    }
    scan.headerValid = true;
    scan.validBytes = kHeaderSize;

    // Records. The commit unit is the complete batch group: a
    // BatchBegin plus exactly `count` Measurement records. validBytes
    // only advances at group boundaries, so a crash mid-batch (torn
    // record or missing group members) drops the whole group — it
    // will be re-measured on resume with the same reserved indices.
    std::size_t offset = kHeaderSize;
    JournalBatch openGroup;
    std::uint32_t openRemaining = 0;
    bool groupOpen = false;

    for (;;) {
        if (bytes.size() - offset < 3)
            break; // torn frame prefix (or clean EOF)
        const std::uint8_t type = bytes[offset];
        const std::uint16_t size =
            static_cast<std::uint16_t>(bytes[offset + 1]) |
            static_cast<std::uint16_t>(bytes[offset + 2]) << 8;
        const std::size_t frame = 3u + size + 4u;
        if (bytes.size() - offset < frame)
            break; // torn record body
        const std::uint32_t storedCrc =
            static_cast<std::uint32_t>(bytes[offset + 3 + size]) |
            static_cast<std::uint32_t>(bytes[offset + 4 + size]) << 8 |
            static_cast<std::uint32_t>(bytes[offset + 5 + size])
                << 16 |
            static_cast<std::uint32_t>(bytes[offset + 6 + size])
                << 24;
        if (journalCrc32(bytes.data() + offset, 3u + size) !=
            storedCrc)
            break; // corrupt record: distrust it and everything after

        ByteReader r(bytes.data() + offset + 3, size);
        bool parsed = true;
        switch (type) {
          case kRecordBatchBegin: {
            if (size != kBatchBeginSize || groupOpen) {
                parsed = false;
                break;
            }
            openGroup = JournalBatch();
            openGroup.round = r.u32();
            openRemaining = r.u32();
            // The writer never opens an empty group; one would commit
            // at once and replay as a zero-size batch.
            parsed = openRemaining != 0;
            groupOpen = parsed;
            break;
          }
          case kRecordMeasurement: {
            if (size != kMeasurementSize || !groupOpen ||
                openRemaining == 0) {
                parsed = false;
                break;
            }
            JournalMeasurement m;
            m.keyHash = r.u64();
            m.outcome.value = r.f64();
            const std::uint8_t status = r.u8();
            if (status >
                static_cast<std::uint8_t>(
                    MeasureStatus::Quarantined)) {
                parsed = false;
                break;
            }
            m.outcome.status = static_cast<MeasureStatus>(status);
            m.outcome.attempts = r.u32();
            openGroup.measurements.push_back(m);
            --openRemaining;
            break;
          }
          case kRecordCheckpoint: {
            if (size != kCheckpointSize || groupOpen) {
                parsed = false;
                break;
            }
            JournalCheckpoint cp;
            const std::uint8_t kind = r.u8();
            if (kind >
                static_cast<std::uint8_t>(CheckpointKind::Aborted)) {
                parsed = false;
                break;
            }
            cp.kind = static_cast<CheckpointKind>(kind);
            cp.round = r.u32();
            cp.attempted = r.u64();
            cp.sampled = r.u64();
            cp.best = r.f64();
            scan.checkpoints.push_back(cp);
            break;
          }
          default:
            parsed = false; // unknown type: written by a future
                            // version or garbage — either way stop
            break;
        }
        if (!parsed)
            break;

        offset += frame;
        if (groupOpen && openRemaining == 0) {
            scan.batches.push_back(std::move(openGroup));
            groupOpen = false;
            scan.validBytes = offset;
        } else if (!groupOpen) {
            scan.validBytes = offset; // checkpoint committed
        }
    }
    scan.truncatedBytes = bytes.size() - scan.validBytes;
}

} // anonymous namespace

std::uint32_t
journalCrc32(const void *data, std::size_t size, std::uint32_t seed)
{
    // IEEE 802.3 reflected CRC32, bytewise table; the table is built
    // once on first use.
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();

    const std::uint8_t *bytes = static_cast<const std::uint8_t *>(data);
    std::uint32_t crc = seed ^ 0xffffffffu;
    for (std::size_t i = 0; i < size; ++i)
        crc = table[(crc ^ bytes[i]) & 0xffu] ^ (crc >> 8);
    return crc ^ 0xffffffffu;
}

std::uint64_t
journalKeyHash(const Assignment &assignment)
{
    // FNV-1a over the canonical key, so symmetric assignments hash
    // equal — the same equivalence notion the memoization cache uses.
    const std::string key = assignment.canonicalKey();
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : key) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

const char *
journalErrorPolicyName(JournalErrorPolicy policy)
{
    switch (policy) {
      case JournalErrorPolicy::Abort:
        return "abort";
      case JournalErrorPolicy::Degrade:
        return "degrade";
    }
    return "?";
}

JournalRecovery
recoverJournal(const std::string &path)
{
    JournalRecovery recovery;
    std::vector<std::uint8_t> bytes;
    if (base::io::readFileBytes(path, bytes).ok()) {
        recovery.fileExists = true;
        scanJournal(bytes, recovery);
    } else if (base::io::fileExists(path + ".000")) {
        // Older builds could split a journal into a chain PATH.000,
        // PATH.001, ...; this build reads one file only.
        recovery.error = "journal is a segment chain (" + path +
            ".000, ...); this build resumes single-file journals only";
    } else {
        recovery.error = "journal does not exist or is unreadable";
    }
    return recovery;
}

MeasurementJournal::MeasurementJournal(const std::string &path,
                                       const JournalHeader &header,
                                       JournalConfig config)
    : config_(std::move(config)), path_(path)
{
    if (!config_.sinkFactory)
        config_.sinkFactory = base::io::fileSinkFactory();
    const std::vector<std::uint8_t> headerBytes = serializeHeader(header);
    openSink(/*truncate=*/true);
    if (recording() &&
        writeChecked(headerBytes.data(), headerBytes.size()))
        sync();
}

MeasurementJournal::MeasurementJournal(const std::string &path,
                                       const JournalRecovery &recovery,
                                       JournalConfig config)
    : config_(std::move(config)), path_(path)
{
    if (!config_.sinkFactory)
        config_.sinkFactory = base::io::fileSinkFactory();
    // Physically drop the untrustworthy tail before appending: a
    // later recovery must never see the old bytes behind new records.
    const base::io::IoResult truncated =
        base::io::truncateFile(path, recovery.validBytes);
    if (!truncated.ok()) {
        handleIoFailure(truncated);
        return;
    }
    openSink(/*truncate=*/false);
}

void
MeasurementJournal::openSink(bool truncate)
{
    base::io::IoResult result;
    sink_ = config_.sinkFactory(path_, truncate, result);
    if (!sink_)
        handleIoFailure(result);
}

void
MeasurementJournal::handleIoFailure(const base::io::IoResult &result)
{
    if (degraded_ || failed_)
        return; // already latched
    errorDetail_ = path_ + ": " + result.detail;
    sink_.reset();
    if (config_.onError == JournalErrorPolicy::Degrade) {
        degraded_ = true;
        warn("journal degraded to memory-only recording (" +
             errorDetail_ + "); results stay exact, durability from "
             "this point is lost");
    } else {
        failed_ = true;
        warn("journal media failure (" + errorDetail_ +
             "); policy abort: refusing to continue unjournaled");
    }
}

bool
MeasurementJournal::writeChecked(const std::uint8_t *data,
                                 std::size_t size)
{
    base::io::IoResult result;
    const std::uint8_t *p = data;
    std::size_t left = size;
    // Bounded immediate retries of the unwritten remainder (the
    // injected Clock has no sleep, and a full disk does not heal in
    // microseconds — the policy, not a timer, decides what a
    // persistent failure means). Retrying only the remainder keeps
    // the byte stream consistent: no frame prefix is ever duplicated.
    for (std::uint32_t attempt = 0; attempt <= config_.writeRetries;
         ++attempt) {
        result = sink_->write(p, left);
        bytesWritten_ += result.bytesWritten;
        if (result.ok())
            return true;
        p += result.bytesWritten;
        left -= result.bytesWritten;
    }
    handleIoFailure(result);
    return false;
}

void
MeasurementJournal::writeRecord(std::uint8_t type,
                                const std::uint8_t *payload,
                                std::size_t size)
{
    if (!recording()) {
        ++droppedRecords_;
        return;
    }
    SCHED_REQUIRE(size <= 0xffff, "journal record payload too large");
    std::vector<std::uint8_t> frame;
    frame.reserve(3 + size + 4);
    ByteWriter w(frame);
    w.u8(type);
    w.u16(static_cast<std::uint16_t>(size));
    frame.insert(frame.end(), payload, payload + size);
    w.u32(journalCrc32(frame.data(), frame.size()));
    writeChecked(frame.data(), frame.size());
}

void
MeasurementJournal::beginBatch(std::uint32_t round,
                               std::uint32_t count)
{
    std::vector<std::uint8_t> payload;
    payload.reserve(kBatchBeginSize);
    ByteWriter w(payload);
    w.u32(round);
    w.u32(count);
    writeRecord(kRecordBatchBegin, payload.data(), payload.size());
}

void
MeasurementJournal::appendMeasurement(
    std::uint64_t keyHash, const MeasurementOutcome &outcome)
{
    std::vector<std::uint8_t> payload;
    payload.reserve(kMeasurementSize);
    ByteWriter w(payload);
    w.u64(keyHash);
    w.f64(outcome.value);
    w.u8(static_cast<std::uint8_t>(outcome.status));
    w.u32(outcome.attempts);
    writeRecord(kRecordMeasurement, payload.data(), payload.size());
}

void
MeasurementJournal::appendCheckpoint(
    const JournalCheckpoint &checkpoint)
{
    std::vector<std::uint8_t> payload;
    payload.reserve(kCheckpointSize);
    ByteWriter w(payload);
    w.u8(static_cast<std::uint8_t>(checkpoint.kind));
    w.u32(checkpoint.round);
    w.u64(checkpoint.attempted);
    w.u64(checkpoint.sampled);
    w.f64(checkpoint.best);
    writeRecord(kRecordCheckpoint, payload.data(), payload.size());
}

void
MeasurementJournal::sync()
{
    if (!recording())
        return;
    // fsync, not a userspace flush: the write-ahead property must
    // hold across power loss, not only across process death — and a
    // failed fsync means the records are NOT durable, which is
    // exactly as serious as a failed write.
    const base::io::IoResult result = sink_->sync();
    if (!result.ok())
        handleIoFailure(result);
}

JournalingEngine::JournalingEngine(PerformanceEngine &inner,
                                   MeasurementJournal journal)
    : inner_(inner), journal_(std::move(journal))
{
}

void
JournalingEngine::queueReplay(std::vector<JournalBatch> batches)
{
    SCHED_REQUIRE(replayed_ == 0 && recorded_ == 0,
                  "replay queued after measurements started");
    for (JournalBatch &batch : batches)
        replayQueue_.push_back(std::move(batch));
}

void
JournalingEngine::failBatch(std::span<MeasurementOutcome> out,
                            std::string detail)
{
    if (!mismatch_) {
        mismatch_ = true;
        mismatchDetail_ = std::move(detail);
        warn("journal replay diverged: " + mismatchDetail_);
    }
    for (MeasurementOutcome &o : out)
        o = MeasurementOutcome::failure(MeasureStatus::Errored);
}

void
JournalingEngine::failUnjournaledBatch(
    std::span<MeasurementOutcome> out)
{
    // Policy Abort after a media failure: the write-ahead property
    // forbids handing upward what is not durable, so the batch fails
    // and the search above aborts cleanly. The durable prefix is
    // intact and the campaign resumable once space returns.
    if (!ioFailureWarned_) {
        ioFailureWarned_ = true;
        warn("journal unavailable, failing measurements: " +
             journal_.errorDetail());
    }
    for (MeasurementOutcome &o : out)
        o = MeasurementOutcome::failure(MeasureStatus::Errored);
}

void
JournalingEngine::serveReplayedBatch(
    std::span<const Assignment> batch,
    std::span<MeasurementOutcome> out)
{
    JournalBatch group = std::move(replayQueue_.front());
    replayQueue_.pop_front();

    if (group.measurements.size() != batch.size()) {
        failBatch(out,
                  "batch size " + std::to_string(batch.size()) +
                      " does not match journaled group of " +
                      std::to_string(group.measurements.size()) +
                      " (configuration changed?)");
        return;
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
        if (journalKeyHash(batch[i]) != group.measurements[i].keyHash) {
            failBatch(out,
                      "assignment key at batch index " +
                          std::to_string(i) +
                          " does not match the journal "
                          "(configuration changed?)");
            return;
        }
    }

    // Fast-forward the inner engines' per-measurement index cursors
    // (the reservation contract in performance_engine.hh): after the
    // queue drains, fresh measurements continue the noise and fault
    // streams exactly where the original run left them, so a resumed
    // campaign is bit-identical under any thread count.
    inner_.reserveMeasurementIndices(batch.size());

    for (std::size_t i = 0; i < batch.size(); ++i)
        out[i] = group.measurements[i].outcome;
    replayed_ += batch.size();
}

void
JournalingEngine::measureBatchOutcome(
    std::span<const Assignment> batch,
    std::span<MeasurementOutcome> out)
{
    SCHED_REQUIRE(batch.size() == out.size(),
                  "batch/result size mismatch");
    if (batch.empty())
        return;
    if (mismatch_) {
        // Divergence is latched: keep failing so the search aborts
        // quickly instead of appending post-divergence garbage.
        failBatch(out, mismatchDetail_);
        return;
    }
    if (!replayQueue_.empty()) {
        serveReplayedBatch(batch, out);
        return;
    }
    if (journal_.failed()) {
        failUnjournaledBatch(out);
        return;
    }

    inner_.measureBatchOutcome(batch, out);

    // Write-ahead append: one group per batch, synced before the
    // results are handed upward, so a crash can lose at most the
    // batch currently in flight — which recovery then drops and the
    // resumed run re-measures with the same reserved indices.
    journal_.beginBatch(round_,
                        static_cast<std::uint32_t>(batch.size()));
    for (std::size_t i = 0; i < batch.size(); ++i)
        journal_.appendMeasurement(journalKeyHash(batch[i]), out[i]);
    journal_.sync();
    if (journal_.failed()) {
        // The media died under this very batch (policy Abort):
        // discard the measured outcomes rather than hand upward what
        // never became durable.
        failUnjournaledBatch(out);
        return;
    }
    if (journal_.degraded())
        unjournaled_ += batch.size();
    else
        recorded_ += batch.size();
}

void
JournalingEngine::checkpoint(const JournalCheckpoint &checkpoint)
{
    if (replaying())
        return; // already on disk from the original run
    journal_.appendCheckpoint(checkpoint);
    journal_.sync();
}

} // namespace core
} // namespace statsched
