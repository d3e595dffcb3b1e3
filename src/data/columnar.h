// Binary columnar container for categorical tables — the on-disk substrate
// behind census-scale datasets (see docs/DATA.md for the byte-level spec).
//
// Layout in one sentence: a CRC-sealed header carrying the schema and the
// dataset fingerprint, then per-column value chunks grouped into fixed-size
// row blocks and laid out column-major (every chunk of column c precedes
// every chunk of column c+1), then a CRC-sealed chunk index that makes the
// whole file random-access. Values are stored as bit-packed codes (width
// chosen from the attribute's domain size) with optional per-chunk
// byte-RLE compression, or — in the zero-copy layout — as raw
// little-endian uint16 so an mmap'd file serves whole columns as
// `std::span<const uint16_t>` without copying a byte.
//
// Two consumption modes:
//  * load — ReadColumnar / ColumnarFile::ToDataset materializes a Dataset:
//    zero-copy-layout files become mmap-backed datasets (load cost is the
//    map + integrity scan, no per-value work), packed files are decoded
//    into owned columns (still far cheaper than CSV parsing);
//  * streaming — MarginalSetEvaluator::ComputeStreaming iterates
//    DecodeChunk block-by-block, so true-table evaluation never holds more
//    than two blocks of decoded values in memory (out-of-core evaluation).
//
// Integrity: the header and the chunk index carry CRC32s checked on Open;
// every chunk carries a CRC32 checked before its bytes are trusted; every
// decoded value is checked against its attribute's domain. Torn,
// truncated, or bit-flipped files are refused with a Status — never
// propagated into count tables.
#ifndef IREDUCT_DATA_COLUMNAR_H_
#define IREDUCT_DATA_COLUMNAR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "common/result.h"
#include "data/dataset.h"

namespace ireduct {

struct ColumnarWriteOptions {
  /// Rows per block (the streaming-decode granularity). The last block may
  /// be short. Must be positive.
  uint32_t block_rows = 1u << 16;
  /// Store every chunk as raw little-endian uint16, uncompressed and
  /// column-contiguous, so Open can serve whole columns as zero-copy spans
  /// straight out of the mmap. Larger files, near-zero load cost.
  bool zero_copy_layout = false;
  /// Try byte-RLE on each bit-packed chunk and keep it when it is smaller
  /// (ignored by the zero-copy layout, which must stay raw).
  bool compress = true;
};

/// How one chunk's bytes are encoded on disk.
enum class ChunkEncoding : uint8_t {
  kRaw16 = 0,      // rows * 2 bytes of uint16 LE (zero-copy eligible)
  kPacked = 1,     // bit-packed at the column's width
  kPackedRle = 2,  // byte-RLE over the bit-packed stream
};

/// Writes `dataset` to `path` in the columnar format.
Status WriteColumnar(const Dataset& dataset, const std::string& path,
                     const ColumnarWriteOptions& options = {});

/// An open (mmap'd) columnar file. Cheap to copy — copies share the
/// mapping, which stays alive as long as any copy (or any Dataset
/// materialized from it via ToDataset) exists.
class ColumnarFile {
 public:
  /// Maps `path` and validates magic, version, header CRC, schema, and
  /// the chunk index CRC + bounds. Zero-copy-layout files additionally
  /// have every chunk CRC verified here, so ColumnSpan needs no further
  /// checks. Corrupt or truncated files are refused.
  static Result<ColumnarFile> Open(const std::string& path);

  const Schema& schema() const;
  uint64_t num_rows() const;
  uint32_t block_rows() const;
  uint32_t num_blocks() const;
  /// Dataset::Fingerprint of the content, as recorded at write time.
  uint64_t fingerprint() const;
  /// Total size of the file in bytes.
  uint64_t file_bytes() const;
  /// True for zero-copy-layout files (ColumnSpan available).
  bool zero_copy() const;
  /// Bit width column `c` is packed at.
  unsigned bit_width(uint32_t column) const;
  /// Encoding of one chunk (for introspection tooling).
  ChunkEncoding chunk_encoding(uint32_t column, uint32_t block) const;
  /// Encoded bytes of one chunk.
  uint64_t chunk_bytes(uint32_t column, uint32_t block) const;

  /// Rows in `block` (== block_rows() except possibly the last block).
  size_t RowsInBlock(uint32_t block) const;

  /// Decodes chunk (`column`, `block`) into out[0 .. RowsInBlock(block)).
  /// Verifies the chunk CRC and that every decoded value is inside the
  /// column's domain. Safe to call concurrently from multiple threads.
  Status DecodeChunk(uint32_t column, uint32_t block, uint16_t* out) const;

  /// Whole-column view straight out of the mmap. Only valid when
  /// zero_copy() is true; the span dies with the last ColumnarFile copy.
  std::span<const uint16_t> ColumnSpan(uint32_t column) const;

  /// Materializes the table: zero-copy files become mmap-backed Datasets
  /// (the mapping is kept alive by the dataset), packed files are decoded
  /// into owned columns. Either way the result's Fingerprint() equals
  /// fingerprint().
  Result<Dataset> ToDataset() const;

 private:
  struct Rep;
  explicit ColumnarFile(std::shared_ptr<const Rep> rep);
  std::shared_ptr<const Rep> rep_;
};

/// Convenience: Open + ToDataset.
Result<Dataset> ReadColumnar(const std::string& path);

namespace columnar_internal {

// Exposed for tests; not part of the public surface.

/// Bytes the bit-packed encoding of `rows` values at `width` bits needs.
size_t PackedBytes(size_t rows, unsigned width);
/// Bit width used for a domain of `domain_size` values (>= 1, <= 16).
unsigned BitWidthFor(uint32_t domain_size);
/// Packs `n` values at `width` bits into `dst` (PackedBytes(n, width)
/// bytes, need not be pre-zeroed).
void BitPack(const uint16_t* src, size_t n, unsigned width, uint8_t* dst);
/// Inverse of BitPack.
void BitUnpack(const uint8_t* src, size_t n, unsigned width, uint16_t* dst);
/// Worst-case byte-RLE output size for `n` input bytes.
size_t RleMaxEncoded(size_t n);
/// Byte-RLE encode; returns the encoded size (<= RleMaxEncoded(n)).
size_t RleEncode(const uint8_t* src, size_t n, uint8_t* dst);
/// Byte-RLE decode of exactly `want` output bytes; fails on malformed or
/// wrong-length streams.
Status RleDecode(const uint8_t* src, size_t n, uint8_t* dst, size_t want);

}  // namespace columnar_internal

}  // namespace ireduct

#endif  // IREDUCT_DATA_COLUMNAR_H_
