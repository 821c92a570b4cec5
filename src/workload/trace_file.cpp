#include "workload/trace_file.hpp"

#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

namespace tcm::workload {

namespace {

constexpr char kMagic[4] = {'T', 'C', 'M', 'T'};
constexpr std::uint32_t kVersion = 1;

struct Header
{
    char magic[4];
    std::uint32_t version;
    std::uint32_t numChannels;
    std::uint32_t banksPerChannel;
    std::uint32_t rowsPerBank;
    std::uint32_t colsPerRow;
    std::uint64_t recordCount;
};
static_assert(sizeof(Header) == 32, "header layout must be stable");

struct Record
{
    std::uint32_t gap;
    std::uint8_t isWrite;
    std::uint8_t channel;
    std::uint8_t bank;
    std::uint8_t pad;
    std::uint32_t row;
    std::uint32_t col;
};
static_assert(sizeof(Record) == 16, "record layout must be stable");

} // namespace

struct TraceWriter::Impl
{
    std::string path;
    std::FILE *file = nullptr;
    Header header{};
};

TraceWriter::TraceWriter(const std::string &path, const Geometry &geometry)
    : impl_(new Impl)
{
    impl_->path = path;
    impl_->file = std::fopen(path.c_str(), "wb");
    if (!impl_->file) {
        delete impl_;
        throw TraceFileError("cannot open trace file for writing: " + path);
    }
    std::memcpy(impl_->header.magic, kMagic, 4);
    impl_->header.version = kVersion;
    impl_->header.numChannels = geometry.numChannels;
    impl_->header.banksPerChannel = geometry.banksPerChannel;
    impl_->header.rowsPerBank = geometry.rowsPerBank;
    impl_->header.colsPerRow = geometry.colsPerRow;
    impl_->header.recordCount = 0;
    // close() rewrites this header and checks that write.
    std::fwrite(&impl_->header, sizeof(Header), 1, impl_->file);
}

TraceWriter::~TraceWriter()
{
    try {
        close();
    } catch (const TraceFileError &) {
        // Nobody to tell; a caller that needs the verdict calls close().
    }
    delete impl_;
}

void
TraceWriter::write(const core::TraceItem &item)
{
    if (!impl_->file)
        throw TraceFileError("trace writer already closed");
    if (item.gap > 0xffffffffULL)
        throw TraceFileError("gap too large for trace record");
    Record rec{};
    rec.gap = static_cast<std::uint32_t>(item.gap);
    rec.isWrite = item.access.isWrite ? 1 : 0;
    rec.channel = static_cast<std::uint8_t>(item.access.channel);
    rec.bank = static_cast<std::uint8_t>(item.access.bank);
    rec.row = static_cast<std::uint32_t>(item.access.row);
    rec.col = static_cast<std::uint32_t>(item.access.col);
    if (std::fwrite(&rec, sizeof(Record), 1, impl_->file) != 1)
        throw TraceFileError("short write to trace file");
    ++count_;
}

void
TraceWriter::close()
{
    std::FILE *file = std::exchange(impl_->file, nullptr);
    if (!file)
        return;
    impl_->header.recordCount = count_;
    // stdio reports a full disk only when it flushes, so a trace that
    // fits its buffer fails nowhere but in fclose.
    const bool patched =
        std::fseek(file, 0, SEEK_SET) == 0 &&
        std::fwrite(&impl_->header, sizeof(Header), 1, file) == 1;
    if (std::fclose(file) != 0 || !patched)
        throw TraceFileError("cannot write trace file: " + impl_->path);
}

FileTrace::FileTrace(const std::string &path, const Geometry &systemGeometry)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        throw TraceFileError("cannot open trace file: " + path);

    Header header{};
    if (std::fread(&header, sizeof(Header), 1, f) != 1) {
        std::fclose(f);
        throw TraceFileError("trace file too short: " + path);
    }
    if (std::memcmp(header.magic, kMagic, 4) != 0 ||
        header.version != kVersion) {
        std::fclose(f);
        throw TraceFileError("not a tcmsim trace (bad magic/version): " +
                             path);
    }
    geometry_.numChannels = static_cast<int>(header.numChannels);
    geometry_.banksPerChannel = static_cast<int>(header.banksPerChannel);
    geometry_.rowsPerBank = static_cast<int>(header.rowsPerBank);
    geometry_.colsPerRow = static_cast<int>(header.colsPerRow);

    if (geometry_.numChannels > systemGeometry.numChannels ||
        geometry_.banksPerChannel > systemGeometry.banksPerChannel ||
        geometry_.rowsPerBank > systemGeometry.rowsPerBank ||
        geometry_.colsPerRow > systemGeometry.colsPerRow) {
        std::fclose(f);
        throw TraceFileError(
            "trace was captured against a larger DRAM geometry than the "
            "simulated system: " +
            path);
    }

    items_.reserve(header.recordCount);
    for (std::uint64_t i = 0; i < header.recordCount; ++i) {
        Record rec{};
        if (std::fread(&rec, sizeof(Record), 1, f) != 1) {
            std::fclose(f);
            throw TraceFileError("truncated trace file: " + path);
        }
        core::TraceItem item;
        item.gap = rec.gap;
        item.access.isWrite = rec.isWrite != 0;
        item.access.channel = rec.channel;
        item.access.bank = rec.bank;
        item.access.row = static_cast<RowId>(rec.row);
        item.access.col = static_cast<ColId>(rec.col);
        items_.push_back(item);
    }
    std::fclose(f);

    if (items_.empty())
        throw TraceFileError("trace file has no records: " + path);
}

core::TraceItem
FileTrace::next()
{
    core::TraceItem item = items_[pos_];
    pos_ = (pos_ + 1) % items_.size();
    return item;
}

void
captureSyntheticTrace(const ThreadProfile &profile, const Geometry &geometry,
                      std::uint64_t seed, std::uint64_t count,
                      const std::string &path)
{
    SyntheticTrace source(profile, geometry, seed);
    TraceWriter writer(path, geometry);
    for (std::uint64_t i = 0; i < count; ++i)
        writer.write(source.next());
    writer.close();
}

void
dumpTraceAsText(const std::string &binPath, const std::string &textPath)
{
    // Loading into memory reuses all of FileTrace's validation.
    Geometry huge;
    huge.numChannels = 256;
    huge.banksPerChannel = 256;
    huge.rowsPerBank = 1 << 30;
    huge.colsPerRow = 1 << 30;
    FileTrace trace(binPath, huge);
    const Geometry &g = trace.traceGeometry();

    std::FILE *out = std::fopen(textPath.c_str(), "w");
    if (!out)
        throw TraceFileError("cannot write " + textPath);
    std::fprintf(out, "# geometry: %d %d %d %d\n", g.numChannels,
                 g.banksPerChannel, g.rowsPerBank, g.colsPerRow);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        core::TraceItem item = trace.next();
        std::fprintf(out, "%llu %c %d %d %d %d\n",
                     static_cast<unsigned long long>(item.gap),
                     item.access.isWrite ? 'W' : 'R', item.access.channel,
                     item.access.bank, item.access.row, item.access.col);
    }
    // A failed write sets the stream's error flag; fclose flushes the rest.
    const bool failed = std::ferror(out) != 0;
    if (std::fclose(out) != 0 || failed)
        throw TraceFileError("cannot write " + textPath);
}

void
convertTextTrace(const std::string &textPath, const std::string &binPath)
{
    std::FILE *in = std::fopen(textPath.c_str(), "r");
    if (!in)
        throw TraceFileError("cannot open " + textPath);

    char line[256];
    Geometry g;
    bool haveGeometry = false;
    std::unique_ptr<TraceWriter> writer;
    std::uint64_t lineno = 0;

    while (std::fgets(line, sizeof(line), in)) {
        ++lineno;
        if (line[0] == '#') {
            if (!haveGeometry &&
                std::sscanf(line, "# geometry: %d %d %d %d",
                            &g.numChannels, &g.banksPerChannel,
                            &g.rowsPerBank, &g.colsPerRow) == 4) {
                haveGeometry = true;
                writer = std::make_unique<TraceWriter>(binPath, g);
            }
            continue;
        }
        if (line[0] == '\n' || line[0] == '\0')
            continue;
        if (!haveGeometry) {
            std::fclose(in);
            throw TraceFileError(
                "text trace must start with '# geometry: ...': " +
                textPath);
        }
        unsigned long long gap;
        char rw;
        int channel, bank, row, col;
        if (std::sscanf(line, "%llu %c %d %d %d %d", &gap, &rw, &channel,
                        &bank, &row, &col) != 6 ||
            (rw != 'R' && rw != 'W')) {
            std::fclose(in);
            throw TraceFileError("malformed record at line " +
                                 std::to_string(lineno) + " of " +
                                 textPath);
        }
        if (channel >= g.numChannels || bank >= g.banksPerChannel ||
            row >= g.rowsPerBank || col >= g.colsPerRow || channel < 0 ||
            bank < 0 || row < 0 || col < 0) {
            std::fclose(in);
            throw TraceFileError("record outside geometry at line " +
                                 std::to_string(lineno) + " of " +
                                 textPath);
        }
        core::TraceItem item;
        item.gap = gap;
        item.access.isWrite = rw == 'W';
        item.access.channel = channel;
        item.access.bank = bank;
        item.access.row = row;
        item.access.col = col;
        writer->write(item);
    }
    std::fclose(in);
    if (!writer || writer->recordsWritten() == 0)
        throw TraceFileError("no records in " + textPath);
    writer->close();
}

} // namespace tcm::workload
