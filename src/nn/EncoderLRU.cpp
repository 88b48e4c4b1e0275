//===- EncoderLRU.cpp - encoder-output cache for repeated requests ------------===//

#include "nn/EncoderLRU.h"

#include <chrono>

using namespace slade;
using namespace slade::nn;

std::shared_ptr<const Transformer::EncoderCache>
EncoderLRU::get(const Transformer &Model, const std::vector<int> &Src,
                ParallelFor *TP) {
  const uint64_t Version = Model.weightVersion();
  if (Value Hit = SourceLRU::get(Src, Version, NoTag()))
    return Hit;
  // Miss: encode outside the lock so unrelated sources encode in
  // parallel. The cold-encode wall time feeds the serving metrics.
  auto T0 = std::chrono::steady_clock::now();
  Value Enc = Model.encodeSource(Src, TP);
  double Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  return put(Src, Version, NoTag(), Enc, Enc->bytes(), Seconds);
}
