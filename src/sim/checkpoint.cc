#include "sim/checkpoint.hh"

#include <bit>
#include <cstring>
#include <fstream>
#include <ostream>

#include "util/logging.hh"

namespace smt
{

namespace
{

/** Cap on serialized string lengths (names, config keys). */
constexpr std::uint32_t maxStringBytes = 1u << 20;

void
putLe(unsigned char *out, std::uint64_t v, unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i)
        out[i] = static_cast<unsigned char>(v >> (8 * i));
}

std::uint64_t
getLe(const unsigned char *in, unsigned bytes)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < bytes; ++i)
        v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
    return v;
}

/** FNV-1a 64: cheap enough to run on every restored snapshot, and
 *  any single-bit flip in a payload changes it. */
constexpr std::uint64_t fnvOffset = 14695981039346656037ull;
constexpr std::uint64_t fnvPrime = 1099511628211ull;

std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t n)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i)
        h = (h ^ p[i]) * fnvPrime;
    return h;
}

} // namespace

// ---------------------------------------------------------------------
// CheckpointWriter
// ---------------------------------------------------------------------

CheckpointWriter::CheckpointWriter(std::ostream &os, std::string context,
                                   const std::string &config_key)
    : os(os), context(std::move(context))
{
    raw(checkpointMagic, sizeof(checkpointMagic));
    u16(checkpointFormatVersion);
    u16(0); // reserved
    countPos = os.tellp();
    u32(0); // component count, backpatched by finish()
    str(config_key);
}

void
CheckpointWriter::fail(const std::string &what) const
{
    throw CheckpointError(
        csprintf("%s: %s", context.c_str(), what.c_str()));
}

void
CheckpointWriter::raw(const void *data, std::size_t n)
{
    if (inSection)
        checksum = fnv1a(checksum, data, n);
    os.write(static_cast<const char *>(data),
             static_cast<std::streamsize>(n));
    if (!os)
        fail("write failed (disk full or file closed?)");
}

void
CheckpointWriter::begin(const std::string &component)
{
    if (finished)
        fail("begin() after finish()");
    if (inSection)
        fail(csprintf("begin(\"%s\") while section \"%s\" is open",
                      component.c_str(), sectionName.c_str()));
    str(component);
    sectionName = component;
    sectionSizePos = os.tellp();
    u64(0); // payload size, backpatched by end()
    inSection = true;
    checksum = fnvOffset;
}

void
CheckpointWriter::end()
{
    if (!inSection)
        fail("end() with no open section");
    inSection = false;
    std::streampos here = os.tellp();
    std::uint64_t payload = static_cast<std::uint64_t>(
        here - sectionSizePos - std::streamoff(8));
    os.seekp(sectionSizePos);
    u64(payload);
    os.seekp(here);
    if (!os)
        fail("seek failed while patching a section size");
    u64(checksum);
    ++components;
}

void
CheckpointWriter::finish()
{
    if (inSection)
        fail("finish() with an open section");
    if (finished)
        return;
    raw(checkpointTrailer, sizeof(checkpointTrailer));
    std::streampos here = os.tellp();
    os.seekp(countPos);
    u32(components);
    os.seekp(here);
    os.flush();
    if (!os)
        fail("flush failed (disk full?)");
    finished = true;
}

void
CheckpointWriter::u8(std::uint8_t v)
{
    raw(&v, 1);
}

void
CheckpointWriter::u16(std::uint16_t v)
{
    unsigned char buf[2];
    putLe(buf, v, 2);
    raw(buf, 2);
}

void
CheckpointWriter::u32(std::uint32_t v)
{
    unsigned char buf[4];
    putLe(buf, v, 4);
    raw(buf, 4);
}

void
CheckpointWriter::u64(std::uint64_t v)
{
    unsigned char buf[8];
    putLe(buf, v, 8);
    raw(buf, 8);
}

void
CheckpointWriter::f64(double v)
{
    u64(std::bit_cast<std::uint64_t>(v));
}

void
CheckpointWriter::str(const std::string &s)
{
    if (s.size() > maxStringBytes)
        fail(csprintf("string of %zu bytes exceeds the %u-byte "
                      "format limit",
                      s.size(), maxStringBytes));
    u32(static_cast<std::uint32_t>(s.size()));
    if (!s.empty())
        raw(s.data(), s.size());
}

// ---------------------------------------------------------------------
// CheckpointReader
// ---------------------------------------------------------------------

CheckpointReader::CheckpointReader(std::istream &is, std::string context)
    : is(is), context(std::move(context))
{
    // Total stream length: the hard upper bound for every declared
    // section size, so forged sizes cannot authorize huge
    // allocations downstream (checkCount validates against them).
    std::streampos start = is.tellg();
    is.seekg(0, std::ios::end);
    std::streampos end_pos = is.tellg();
    is.seekg(start);
    if (!is || end_pos < start)
        fail("cannot determine the file size (unseekable stream?)");
    streamBytes = static_cast<std::uint64_t>(end_pos - start);

    char magic[sizeof(checkpointMagic)];
    is.read(magic, sizeof(magic));
    if (!is || is.gcount() != sizeof(magic))
        fail("file too short for the checkpoint magic (is this a "
             "checkpoint file?)");
    if (std::memcmp(magic, checkpointMagic, sizeof(magic)) != 0)
        fail("bad magic (expected \"SMTCKPT\"); this is not a "
             "checkpoint file");

    std::uint16_t version = u16();
    if (version != checkpointFormatVersion)
        fail(csprintf("format version %u, but this build reads "
                      "version %u — re-save the checkpoint with this "
                      "build",
                      version, checkpointFormatVersion));
    std::uint16_t reserved = u16();
    if (reserved != 0)
        fail(csprintf("reserved header field is %u, expected 0 "
                      "(corrupt header)",
                      reserved));
    declaredCount = u32();
    if (declaredCount == 0)
        fail("checkpoint declares zero components (file was not "
             "finished?)");
    key = str();
}

void
CheckpointReader::fail(const std::string &what) const
{
    std::string where = context + ": checkpoint";
    if (inSection)
        where += csprintf(" (in component \"%s\")",
                          sectionName.c_str());
    throw CheckpointError(
        csprintf("%s: %s", where.c_str(), what.c_str()));
}

void
CheckpointReader::raw(void *data, std::size_t n)
{
    if (inSection) {
        if (n > sectionRemaining)
            fail(csprintf("component payload over-read (%zu bytes "
                          "wanted, %llu left); the declared section "
                          "size disagrees with its content",
                          n,
                          (unsigned long long)sectionRemaining));
        sectionRemaining -= n;
    }
    is.read(static_cast<char *>(data),
            static_cast<std::streamsize>(n));
    if (!is || is.gcount() != static_cast<std::streamsize>(n))
        fail("unexpected end of file (truncated checkpoint)");
    if (inSection)
        checksum = fnv1a(checksum, data, n);
}

void
CheckpointReader::begin(const std::string &component)
{
    if (inSection)
        fail(csprintf("begin(\"%s\") while another section is open",
                      component.c_str()));
    if (consumedCount >= declaredCount)
        fail(csprintf("component \"%s\" requested but the file "
                      "declares only %u components (component-count "
                      "mismatch)",
                      component.c_str(), declaredCount));
    std::string name = str();
    if (name != component)
        fail(csprintf("component order mismatch: expected \"%s\", "
                      "found \"%s\" — the checkpoint was written by "
                      "an incompatible build",
                      component.c_str(), name.c_str()));
    sectionName = name;
    sectionRemaining = u64();
    if (sectionRemaining > streamBytes)
        fail(csprintf("section \"%s\" declares %llu payload bytes "
                      "but the whole file holds %llu (corrupt "
                      "section size)",
                      name.c_str(),
                      (unsigned long long)sectionRemaining,
                      (unsigned long long)streamBytes));
    inSection = true;
    checksum = fnvOffset;
}

void
CheckpointReader::end()
{
    if (!inSection)
        fail("end() with no open section");
    if (sectionRemaining != 0)
        fail(csprintf("%llu unread payload bytes at section end; "
                      "the declared section size disagrees with its "
                      "content",
                      (unsigned long long)sectionRemaining));
    inSection = false;
    if (u64() != checksum)
        fail(csprintf("checksum mismatch in component \"%s\" (corrupt "
                      "or tampered payload) — delete the file and "
                      "re-save it",
                      sectionName.c_str()));
    sectionName.clear();
    ++consumedCount;
}

void
CheckpointReader::finish()
{
    if (inSection)
        fail("finish() with an open section");
    if (consumedCount != declaredCount)
        fail(csprintf("consumed %u of the %u declared components "
                      "(component-count mismatch)",
                      consumedCount, declaredCount));
    char trailer[sizeof(checkpointTrailer)];
    is.read(trailer, sizeof(trailer));
    if (!is || is.gcount() != sizeof(trailer))
        fail("missing end trailer (truncated checkpoint)");
    if (std::memcmp(trailer, checkpointTrailer, sizeof(trailer)) != 0)
        fail("corrupt end trailer");
    is.peek();
    if (!is.eof())
        fail("trailing bytes after the end trailer (corrupt or "
             "concatenated file)");
}

std::uint8_t
CheckpointReader::u8()
{
    std::uint8_t v;
    raw(&v, 1);
    return v;
}

std::uint16_t
CheckpointReader::u16()
{
    unsigned char buf[2];
    raw(buf, 2);
    return static_cast<std::uint16_t>(getLe(buf, 2));
}

std::uint32_t
CheckpointReader::u32()
{
    unsigned char buf[4];
    raw(buf, 4);
    return static_cast<std::uint32_t>(getLe(buf, 4));
}

std::uint64_t
CheckpointReader::u64()
{
    unsigned char buf[8];
    raw(buf, 8);
    return getLe(buf, 8);
}

bool
CheckpointReader::b()
{
    std::uint8_t v = u8();
    if (v > 1)
        fail(csprintf("boolean byte holds %u (corrupt payload)", v));
    return v != 0;
}

double
CheckpointReader::f64()
{
    return std::bit_cast<double>(u64());
}

std::string
CheckpointReader::str()
{
    std::uint32_t n = u32();
    if (n > maxStringBytes)
        fail(csprintf("string length %u exceeds the %u-byte format "
                      "limit (corrupt length field)",
                      n, maxStringBytes));
    std::string s(n, '\0');
    if (n > 0)
        raw(s.data(), n);
    return s;
}

std::uint64_t
CheckpointReader::checkCount(std::uint64_t n, std::size_t elem_bytes,
                             const char *what)
{
    // Every serialized element consumes at least elem_bytes from the
    // open section, so a count the section cannot hold is corrupt.
    if (!inSection || n * elem_bytes > sectionRemaining)
        fail(csprintf("%s count %llu does not fit the remaining "
                      "section payload (corrupt count field)",
                      what, (unsigned long long)n));
    return n;
}

OpClass
checkpointReadOpClass(CheckpointReader &r)
{
    std::uint8_t v = r.u8();
    if (v >= numOpClasses)
        r.fail(csprintf("op-class byte holds %u, valid range is "
                        "[0, %u) (corrupt payload)",
                        v, numOpClasses));
    return static_cast<OpClass>(v);
}

// ---------------------------------------------------------------------
// CheckpointFileReader
// ---------------------------------------------------------------------

struct CheckpointFileReader::Impl
{
    std::ifstream is;
};

CheckpointFileReader::CheckpointFileReader(const std::string &path)
    : impl(std::make_unique<Impl>())
{
    impl->is.open(path, std::ios::binary);
    if (!impl->is)
        throw CheckpointError(csprintf(
            "%s: cannot open checkpoint file (does it exist and is "
            "it readable?)",
            path.c_str()));
    r = std::make_unique<CheckpointReader>(impl->is, path);
}

CheckpointFileReader::~CheckpointFileReader() = default;

} // namespace smt
