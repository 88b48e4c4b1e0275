//===- Machine.h - simulated memory and run outcomes ------------*- C++ -*-===//
///
/// \file
/// Shared pieces of the two assembly interpreters: the paged memory image,
/// fault tracking, and the outcome of a simulated call. Executing
/// decompiled code in a simulator rather than natively is this repo's
/// sandbox (the paper's artifact warns IO evaluation "requires the host to
/// execute potentially unsafe code"; we never do).
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_VM_MACHINE_H
#define SLADE_VM_MACHINE_H

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace slade {
namespace vm {

/// Little-endian memory image of size() bytes. Addresses below GuardSize
/// fault, as do out-of-range accesses. Storage is PageSize-byte pages,
/// each allocated zeroed on its first store, so untouched memory reads as
/// zero and an image costs only the pages a run writes (a test input
/// touches a stack page, its buffers' and the globals' pages, not the
/// whole 1 MiB).
class Memory {
public:
  static constexpr uint64_t GuardSize = 0x1000;
  static constexpr uint64_t PageSize = 0x1000;

  explicit Memory(size_t Size = 1 << 20)
      : ImageSize(Size), Pages((Size + PageSize - 1) / PageSize) {}

  bool faulted() const { return Fault; }
  const std::string &faultReason() const { return FaultMsg; }
  void clearFault() {
    Fault = false;
    FaultMsg.clear();
  }

  /// [Addr, Addr + Size) lies inside the image and above the guard page.
  /// Written so that no sum wraps: an address within Size bytes of 2^64
  /// (a negative offset from a null pointer) is out of bounds.
  bool inBounds(uint64_t Addr, unsigned Size) const {
    return Addr >= GuardSize && fits(Addr, Size);
  }

  uint64_t load(uint64_t Addr, unsigned Size) {
    if (!inBounds(Addr, Size)) {
      fault(Addr, "load");
      return 0;
    }
    uint64_t V = 0;
    read(Addr, &V, Size);
    return V;
  }

  void store(uint64_t Addr, unsigned Size, uint64_t V) {
    if (!inBounds(Addr, Size)) {
      fault(Addr, "store");
      return;
    }
    write(Addr, &V, Size);
  }

  void loadBlock(uint64_t Addr, void *Dst, unsigned Size) {
    if (!inBounds(Addr, Size)) {
      fault(Addr, "load");
      std::memset(Dst, 0, Size);
      return;
    }
    read(Addr, Dst, Size);
  }

  void storeBlock(uint64_t Addr, const void *Src, unsigned Size) {
    if (!inBounds(Addr, Size)) {
      fault(Addr, "store");
      return;
    }
    write(Addr, Src, Size);
  }

  /// The Size bytes at \p Addr (guard page included), or Size zeros when
  /// they do not fit in the image.
  std::vector<uint8_t> snapshot(uint64_t Addr, unsigned Size) const {
    std::vector<uint8_t> Out(Size, 0);
    if (fits(Addr, Size))
      read(Addr, Out.data(), Size);
    return Out;
  }

  size_t size() const { return ImageSize; }

private:
  bool fits(uint64_t Addr, unsigned Size) const {
    return Addr <= ImageSize && Size <= ImageSize - Addr;
  }

  /// Copies [Addr, Addr + N) out page by page; pages never stored to read
  /// as zero. The range must fit.
  void read(uint64_t Addr, void *Dst, size_t N) const {
    auto *Out = static_cast<uint8_t *>(Dst);
    while (N > 0) {
      size_t Off = Addr % PageSize;
      size_t Chunk = std::min<size_t>(N, PageSize - Off);
      if (const uint8_t *P = Pages[Addr / PageSize].get())
        std::memcpy(Out, P + Off, Chunk);
      else
        std::memset(Out, 0, Chunk);
      Out += Chunk;
      Addr += Chunk;
      N -= Chunk;
    }
  }

  /// Copies into [Addr, Addr + N), allocating each page zeroed on its
  /// first store. The range must fit.
  void write(uint64_t Addr, const void *Src, size_t N) {
    const auto *In = static_cast<const uint8_t *>(Src);
    while (N > 0) {
      size_t Off = Addr % PageSize;
      size_t Chunk = std::min<size_t>(N, PageSize - Off);
      std::unique_ptr<uint8_t[]> &P = Pages[Addr / PageSize];
      if (!P)
        P = std::make_unique<uint8_t[]>(PageSize);
      std::memcpy(P.get() + Off, In, Chunk);
      In += Chunk;
      Addr += Chunk;
      N -= Chunk;
    }
  }

  void fault(uint64_t Addr, const char *What) {
    if (!Fault) {
      Fault = true;
      FaultMsg = std::string("memory ") + What + " out of bounds at 0x";
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%llx",
                    static_cast<unsigned long long>(Addr));
      FaultMsg += Buf;
    }
  }

  size_t ImageSize;
  /// Page I holds [I * PageSize, (I + 1) * PageSize); null until stored.
  std::vector<std::unique_ptr<uint8_t[]>> Pages;
  bool Fault = false;
  std::string FaultMsg;
};

/// Result of simulating one call.
struct RunOutcome {
  enum Kind { Return, Fault, Timeout } K = Return;
  uint64_t IntResult = 0;  ///< rax / x0.
  uint64_t FloatBits = 0;  ///< Raw low 8 bytes of xmm0 / v0; the harness
                           ///< reinterprets per the declared return type.
  std::string FaultReason;
  uint64_t Steps = 0;
};

} // namespace vm
} // namespace slade

#endif // SLADE_VM_MACHINE_H
