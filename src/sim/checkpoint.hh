/**
 * @file
 * Versioned binary checkpoint format: full simulator state serialized
 * as a sequence of named component sections, mirroring the `.trc`
 * trace-file discipline (little-endian, fixed magic, explicit version,
 * every malformed input an actionable error).
 *
 * Layout:
 *
 *   magic     "SMTCKPT\0"                       (8 bytes)
 *   version   u16                               (checkpointFormatVersion)
 *   reserved  u16                               (0)
 *   count     u32  component sections that follow (backpatched)
 *   configKey string (u32 length + bytes): the warmup-relevant
 *             configuration the state was captured under; restore
 *             refuses a mismatching target configuration.
 *   sections  count x { name string, u64 payloadBytes, payload,
 *                       u64 checksum (FNV-1a 64 over the payload) }
 *   trailer   "SMTCKEND"                        (8 bytes)
 *
 * Components serialize themselves through save(CheckpointWriter&) /
 * restore(CheckpointReader&) hooks; the writer/reader own all byte
 * encoding, bounds checking and error reporting, so component code is
 * a flat list of typed puts/gets.
 */

#ifndef SMTFETCH_SIM_CHECKPOINT_HH
#define SMTFETCH_SIM_CHECKPOINT_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>

#include "isa/opcode.hh"
#include "util/types.hh"

namespace smt
{

/**
 * User-facing error in a checkpoint file: I/O failure, corruption, or
 * a configuration mismatch. The message names the file and what to do
 * about it.
 */
class CheckpointError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * The checkpoint format revision this build reads and writes.
 * History: v2 added the explicit overflow count to the Histogram
 * payload; v3 appended the cycle-skip counters to the SimStats
 * payload; v4 added the low-confidence bit to serialized fetch
 * blocks, the trace-source oracle lookahead, and per-engine
 * checkpoint section tags ("engine.gshare", ...) from the engine
 * registry (older checkpoints fail restore with a re-save-it error);
 * v5 appended the per-thread access/miss attribution arrays to every
 * cache payload; v6 appended the completion overflow (events beyond
 * one event-wheel revolution) to the exec payload and a checksum
 * after every section payload.
 */
constexpr std::uint16_t checkpointFormatVersion = 6;

/** Binary file magic ("SMTCKPT" + NUL). */
constexpr char checkpointMagic[8] = {'S', 'M', 'T', 'C',
                                     'K', 'P', 'T', '\0'};

/** End-of-file trailer guarding against truncation. */
constexpr char checkpointTrailer[8] = {'S', 'M', 'T', 'C',
                                       'K', 'E', 'N', 'D'};

/**
 * Streaming checkpoint serializer over any seekable binary ostream
 * (file or string buffer). Sections must be strictly sequential:
 * begin(name), typed puts, end(); finish() backpatches the component
 * count and writes the trailer. Any I/O failure is a CheckpointError
 * naming the destination.
 */
class CheckpointWriter
{
  public:
    /**
     * @param os Seekable binary output stream (must outlive the
     *        writer until finish()).
     * @param context Destination name for error messages (file path).
     * @param config_key Warmup-relevant configuration descriptor the
     *        reader will verify against its own configuration.
     */
    CheckpointWriter(std::ostream &os, std::string context,
                     const std::string &config_key);

    /** Open the next component section. */
    void begin(const std::string &component);

    /** Close the current section (backpatches its payload size). */
    void end();

    /** @name Typed puts (little-endian). */
    /// @{
    void u8(std::uint8_t v);
    void u16(std::uint16_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i16(std::int16_t v) { u16(static_cast<std::uint16_t>(v)); }
    void b(bool v) { u8(v ? 1 : 0); }
    void f64(double v);
    void str(const std::string &s);
    /// @}

    /** Write the trailer and backpatch the component count. */
    void finish();

    std::uint32_t componentsWritten() const { return components; }

    [[noreturn]] void fail(const std::string &what) const;

  private:
    /** Write bytes; section payload bytes also feed the checksum. */
    void raw(const void *data, std::size_t n);

    std::ostream &os;
    std::string context;
    std::uint64_t checksum = 0; //!< of the open section's payload
    std::uint32_t components = 0;
    std::streampos countPos;
    std::streampos sectionSizePos = -1;
    std::string sectionName;
    bool inSection = false;
    bool finished = false;
};

/**
 * Streaming checkpoint decoder. The constructor validates magic,
 * version and the header; sections are consumed strictly in the order
 * they were written, and end() verifies the section was consumed
 * exactly. Every corruption is a CheckpointError, never UB.
 */
class CheckpointReader
{
  public:
    /**
     * @param is Binary input stream positioned at the start.
     * @param context Source name for error messages (file path).
     */
    CheckpointReader(std::istream &is, std::string context);

    /** The configuration descriptor the checkpoint was saved under. */
    const std::string &configKey() const { return key; }

    /** Declared number of component sections. */
    std::uint32_t componentCount() const { return declaredCount; }

    /**
     * Open the next section, which must be named `component`
     * (mismatch means the file disagrees with this build's component
     * layout).
     */
    void begin(const std::string &component);

    /** Close the current section; error unless fully consumed. */
    void end();

    /** @name Typed gets (bounds-checked against the section). */
    /// @{
    std::uint8_t u8();
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int16_t i16() { return static_cast<std::int16_t>(u16()); }
    bool b();
    double f64();
    std::string str();
    /// @}

    /**
     * Bounds-check an element count against the bytes left in the
     * current section (corrupt counts must not drive allocations).
     * @return n, for inline use.
     */
    std::uint64_t checkCount(std::uint64_t n, std::size_t elem_bytes,
                             const char *what);

    /** Verify all sections were consumed and the trailer is intact. */
    void finish();

    [[noreturn]] void fail(const std::string &what) const;

  private:
    void raw(void *data, std::size_t n);

    std::istream &is;
    std::string context;
    std::string key;
    std::uint64_t checksum = 0; //!< of the open section's payload
    std::uint64_t streamBytes = 0;
    std::uint32_t declaredCount = 0;
    std::uint32_t consumedCount = 0;
    std::uint64_t sectionRemaining = 0;
    bool inSection = false;
    std::string sectionName;
};

/** Decode a serialized OpClass byte, failing on out-of-range values. */
OpClass checkpointReadOpClass(CheckpointReader &r);

/**
 * Convenience file-backed reader: opens the path and keeps the stream
 * alive for the lifetime of the object. CheckpointError when the file
 * cannot be opened.
 */
class CheckpointFileReader
{
  public:
    explicit CheckpointFileReader(const std::string &path);
    ~CheckpointFileReader();

    CheckpointFileReader(const CheckpointFileReader &) = delete;
    CheckpointFileReader &operator=(const CheckpointFileReader &) =
        delete;

    CheckpointReader &reader() { return *r; }

  private:
    /** Holds the ifstream (kept out of this header via iosfwd). */
    struct Impl;
    std::unique_ptr<Impl> impl;
    std::unique_ptr<CheckpointReader> r;
};

} // namespace smt

#endif // SMTFETCH_SIM_CHECKPOINT_HH
