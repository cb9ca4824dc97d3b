#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/types.hpp"

namespace rinkit::wire {

/// Raw frame payload as shipped over the (simulated) websocket.
using Bytes = std::vector<std::uint8_t>;

// Frame format version 2 (kFrameVersion in scene_frame.hpp; the full layout
// is in DESIGN.md "Wire protocol"). Two codings distinguish it from version
// 1, which decoders reject as an unsupported version:
//
//  - Changed-index sets (delta scores, per-view positions and colours) open
//    with varint(count << 1 | mode). Mode 0 is `count` gap varints (the
//    first index, then index - previous - 1); mode 1 is a ceil(n / 8)-byte
//    bitmap, bit i (byte i / 8, LSB first) set for changed node i. The
//    encoder picks whichever is shorter, so dense sets (every node moved)
//    cost n / 8 bytes instead of ~n. The per-item values follow the set, in
//    index order, in both modes.
//    ByteWriter::indexSet / ByteReader::indexSet below implement it.
//  - Colour sections (scene_frame.cpp) open with a mode byte: inline, or a
//    back-reference meaning "view 0's colour bytes again". Both views of
//    the widget colour nodes identically, so view 1 ships one byte.

/// Thrown by the decoder on any malformed input: truncated buffer, bad
/// magic/version, out-of-range index, or a delta whose base does not match
/// the decoder's state. Encoding never throws this.
class WireError : public std::runtime_error {
public:
    explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// ZigZag maps signed deltas to small unsigned varints: 0 -> 0, -1 -> 1,
/// 1 -> 2, -2 -> 3, ... so near-zero position deltas stay 1-2 bytes.
constexpr std::uint64_t zigzagEncode(std::int64_t v) {
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t zigzagDecode(std::uint64_t v) {
    return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

/// Append-only little-endian byte sink. All multi-byte scalars are written
/// explicitly byte by byte, so frames are identical across hosts.
class ByteWriter {
public:
    void reserve(std::size_t bytes) { out_.reserve(bytes); }

    void u8(std::uint8_t v) { out_.push_back(v); }

    void u16(std::uint16_t v) {
        out_.push_back(static_cast<std::uint8_t>(v));
        out_.push_back(static_cast<std::uint8_t>(v >> 8));
    }

    void u32(std::uint32_t v) {
        for (int i = 0; i < 4; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void f32(float v) {
        std::uint32_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u32(bits);
    }

    void f64(double v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    /// LEB128: 7 value bits per byte, high bit = continuation.
    void varint(std::uint64_t v) {
        while (v >= 0x80) {
            out_.push_back(static_cast<std::uint8_t>(v) | 0x80);
            v >>= 7;
        }
        out_.push_back(static_cast<std::uint8_t>(v));
    }

    void svarint(std::int64_t v) { varint(zigzagEncode(v)); }

    /// Changed-index set over @p n nodes (@p idx ascending, each < n) in the
    /// shorter of the two codings described at the top of this file.
    /// Returns true when it shipped as a bitmap.
    bool indexSet(const std::vector<node>& idx, count n) {
        std::size_t gapBytes = 0;
        for (std::size_t k = 0; k < idx.size(); ++k)
            gapBytes += varintSize(k == 0 ? idx[0] : idx[k] - idx[k - 1] - 1);
        const std::size_t bitmapBytes = (n + 7) / 8;
        const bool bitmap = bitmapBytes < gapBytes;
        varint((static_cast<std::uint64_t>(idx.size()) << 1) | (bitmap ? 1u : 0u));
        if (bitmap) {
            const std::size_t at = out_.size();
            out_.resize(at + bitmapBytes, 0);
            for (const node i : idx)
                out_[at + i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
        } else {
            for (std::size_t k = 0; k < idx.size(); ++k)
                varint(k == 0 ? idx[0] : idx[k] - idx[k - 1] - 1);
        }
        return bitmap;
    }

    /// varint length prefix + raw bytes.
    void string(std::string_view s) {
        varint(s.size());
        out_.insert(out_.end(), s.begin(), s.end());
    }

    std::size_t size() const { return out_.size(); }
    /// Drops everything written after the first @p size bytes.
    void truncate(std::size_t size) { out_.resize(std::min(size, out_.size())); }
    Bytes take() { return std::move(out_); }
    const Bytes& bytes() const { return out_; }

private:
    static std::size_t varintSize(std::uint64_t v) {
        std::size_t bytes = 1;
        for (; v >= 0x80; v >>= 7) ++bytes;
        return bytes;
    }

    Bytes out_;
};

/// Bounds-checked reader over a frame buffer. Every read validates the
/// remaining length first and throws WireError on truncation — the decoder
/// never reads past the end of an attacker-supplied buffer.
class ByteReader {
public:
    explicit ByteReader(const Bytes& data) : data_(data.data()), size_(data.size()) {}
    ByteReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

    std::size_t remaining() const { return size_ - pos_; }
    bool done() const { return pos_ == size_; }
    std::size_t offset() const { return pos_; }

    /// A reader over bytes [from, to) of the same buffer, for parsing an
    /// already-validated span a second time.
    ByteReader slice(std::size_t from, std::size_t to) const {
        if (from > to || to > size_) throw WireError("slice out of range");
        return ByteReader(data_ + from, to - from);
    }

    std::uint8_t u8() {
        need(1, "u8");
        return data_[pos_++];
    }

    std::uint16_t u16() {
        need(2, "u16");
        const std::uint16_t v = static_cast<std::uint16_t>(
            data_[pos_] | (static_cast<std::uint16_t>(data_[pos_ + 1]) << 8));
        pos_ += 2;
        return v;
    }

    std::uint32_t u32() {
        need(4, "u32");
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
        pos_ += 4;
        return v;
    }

    std::uint64_t u64() {
        need(8, "u64");
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
        pos_ += 8;
        return v;
    }

    float f32() {
        const std::uint32_t bits = u32();
        float v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    double f64() {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    std::uint64_t varint() {
        std::uint64_t v = 0;
        for (int shift = 0; shift < 64; shift += 7) {
            need(1, "varint");
            const std::uint8_t byte = data_[pos_++];
            v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
            if ((byte & 0x80) == 0) return v;
        }
        throw WireError("varint longer than 10 bytes");
    }

    std::int64_t svarint() { return zigzagDecode(varint()); }

    std::string string(std::size_t maxLen = 1 << 20) {
        const std::uint64_t len = varint();
        if (len > maxLen) throw WireError("string length exceeds cap");
        need(len, "string body");
        std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
        pos_ += len;
        return s;
    }

    /// Validates an element count read from the wire against the bytes
    /// actually left in the buffer: a count of N items each at least
    /// @p minBytesPerItem bytes cannot be honest if N * min > remaining.
    /// Rejecting here keeps hostile counts from driving huge allocations.
    std::uint64_t boundedCount(std::uint64_t n, std::size_t minBytesPerItem,
                               const char* what) {
        if (minBytesPerItem == 0) minBytesPerItem = 1;
        if (n > remaining() / minBytesPerItem) {
            throw WireError(std::string("count of ") + what + " exceeds frame size");
        }
        return n;
    }

    /// Reads a changed-index set over @p n nodes (the coding is described at
    /// the top of this file) into @p out, ascending. @p valueBytes is the
    /// minimum encoded size of the value that follows each index: the count
    /// is bounded by the bytes left with it, plus one gap byte per item in
    /// gap mode. Throws on a gap or bit at or beyond n, a bitmap whose
    /// popcount differs from the count, or a truncated set.
    void indexSet(std::uint64_t n, std::size_t valueBytes, const char* what,
                  std::vector<std::uint64_t>& out) {
        out.clear();
        const std::uint64_t header = varint();
        const std::uint64_t k = header >> 1;
        if ((header & 1) == 0) {
            boundedCount(k, 1 + valueBytes, what);
            out.reserve(k);
            for (std::uint64_t j = 0; j < k; ++j) {
                const std::uint64_t gap = varint();
                // gap < n also keeps prev + 1 + gap from wrapping.
                if (gap >= n) throw WireError(std::string(what) + ": index out of range");
                const std::uint64_t i = j == 0 ? gap : out.back() + 1 + gap;
                if (i >= n) throw WireError(std::string(what) + ": index out of range");
                out.push_back(i);
            }
            return;
        }
        const std::uint64_t bitmapBytes = n / 8 + (n % 8 != 0 ? 1 : 0);
        need(bitmapBytes, "index bitmap");
        const std::uint8_t* bits = data_ + pos_;
        pos_ += bitmapBytes;
        if (n % 8 != 0 && (bits[bitmapBytes - 1] >> (n % 8)) != 0)
            throw WireError(std::string(what) + ": bitmap bit beyond node count");
        boundedCount(k, valueBytes, what);
        const auto mismatch = [what] {
            return WireError(std::string(what) + ": bitmap popcount mismatch");
        };
        out.reserve(k);
        for (std::uint64_t b = 0; b < bitmapBytes; ++b) {
            for (unsigned byte = bits[b]; byte != 0; byte &= byte - 1) {
                if (out.size() == k) throw mismatch(); // before growing past k
                out.push_back(b * 8 + static_cast<unsigned>(std::countr_zero(byte)));
            }
        }
        if (out.size() != k) throw mismatch();
    }

    void expectEnd() const {
        if (pos_ != size_) throw WireError("trailing bytes after frame");
    }

private:
    void need(std::size_t n, const char* what) {
        if (size_ - pos_ < n) {
            throw WireError(std::string("truncated frame reading ") + what);
        }
    }

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

} // namespace rinkit::wire
