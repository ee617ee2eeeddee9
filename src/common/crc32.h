#ifndef HYTAP_COMMON_CRC32_H_
#define HYTAP_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace hytap {

/// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) over
/// `size` bytes. Slice-by-8 software implementation: portable and fast
/// enough that checksumming a 4 KB page costs well under a microsecond.
/// Fault-free reads verify a page once per write
/// (SecondaryStore::ReadPage), so the steady-state cost is near zero.
uint32_t Crc32c(const void* data, size_t size);

}  // namespace hytap

#endif  // HYTAP_COMMON_CRC32_H_
