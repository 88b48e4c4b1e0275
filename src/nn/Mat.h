//===- Mat.h - 2-D tensors with reverse-mode autograd -----------*- C++ -*-===//
///
/// \file
/// Minimal dense float machinery for the sequence-to-sequence Transformer
/// (§V-B). All activations are 2-D [rows, cols]; sequences are processed
/// one at a time (so no padding/masking plumbing is needed beyond the
/// causal mask). A Graph is a tape: ops append backward closures that run
/// in reverse on backward().
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_NN_MAT_H
#define SLADE_NN_MAT_H

#include <cassert>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

namespace slade {
namespace nn {

struct Mat {
  int R = 0, C = 0;
  std::vector<float> V; ///< Values, row-major.
  std::vector<float> G; ///< Gradients (same shape; empty for inference).

  Mat() = default;
  Mat(int R, int C, bool WithGrad = true)
      : R(R), C(C), V(static_cast<size_t>(R) * C, 0.0f) {
    if (WithGrad)
      G.assign(static_cast<size_t>(R) * C, 0.0f);
  }

  float &at(int I, int J) { return V[static_cast<size_t>(I) * C + J]; }
  float at(int I, int J) const { return V[static_cast<size_t>(I) * C + J]; }
  float &gat(int I, int J) { return G[static_cast<size_t>(I) * C + J]; }
  size_t size() const { return V.size(); }
  void zeroGrad() { std::fill(G.begin(), G.end(), 0.0f); }
};

/// Tape of operations over arena-owned intermediates.
///
/// An inference-mode Graph records no backward closures and allocates its
/// intermediates without gradient buffers, halving the memory traffic of
/// every activation on the decode hot path.
class Graph {
public:
  Graph() = default;
  explicit Graph(bool Inference) : Inference(Inference) {}

  Mat *make(int R, int C) {
    Arena.push_back(std::make_unique<Mat>(R, C, /*WithGrad=*/!Inference));
    return Arena.back().get();
  }
  void addBackward(std::function<void()> Fn) {
    if (Inference)
      return;
    Tape.push_back(std::move(Fn));
  }
  void backward() {
    for (auto It = Tape.rbegin(); It != Tape.rend(); ++It)
      (*It)();
  }
  void clear() {
    Tape.clear();
    Arena.clear();
  }
  bool inference() const { return Inference; }

private:
  std::vector<std::function<void()>> Tape;
  std::deque<std::unique_ptr<Mat>> Arena;
  bool Inference = false;
};

// -- raw kernels (no autograd) ----------------------------------------------
//
// Register-blocked, cache-tiled accumulating GEMMs. Per output element the
// reduction over K runs in increasing order, so results match a naive
// triple loop exactly when C starts zeroed (and to rounding otherwise).

/// C += A * B. A is [m,k], B is [k,n], C is [m,n].
void gemmAcc(const float *A, const float *B, float *C, int M, int K, int N);
/// C += A * B^T. A is [m,k], B is [n,k], C is [m,n].
void gemmAccNT(const float *A, const float *B, float *C, int M, int K,
               int N);
/// C += A^T * B. A is [k,m], B is [k,n], C is [m,n]. Training-backward
/// only (both operands are activations/gradients), so it has no
/// pre-packed variant.
void gemmAccTN(const float *A, const float *B, float *C, int M, int K,
               int N);

// -- pre-packed B operands ----------------------------------------------------
//
// The microkernels read B in NR-column tiles; a row-major B pays a
// strided gather per K step and gemmAccNT pays a full transpose-pack per
// call. Weight matrices are immutable between weightVersion bumps, so
// they are packed ONCE into the exact tile-major layout the kernels
// consume and reused by every subsequent GEMM (activation-side operands
// keep packing per call). Packed results are bit-identical to the
// row-major kernels: the per-element K-order contract above is
// unchanged, only the load addresses move.

/// Microkernel column-tile width (floats). Fixed by the register
/// blocking in Mat.cpp; exposed so scratch sizing and tests can name it.
constexpr int GemmTileN = 16;

/// A B operand [K, N] pre-packed tile-major: tileCount() tiles of
/// GemmTileN consecutive columns, each stored K-major
/// ([tile][K][GemmTileN], contiguous). The last tile's missing columns
/// are zero-padded so the kernels can always run full-width lanes; the
/// pad lanes are computed and discarded, never stored. Storage is
/// grow-only, so re-packing on a weight bump allocates nothing once
/// warm.
struct PackedMat {
  int K = 0, N = 0;
  std::vector<float> Tiles;
  int tileCount() const { return (N + GemmTileN - 1) / GemmTileN; }
  size_t bytes() const { return Tiles.capacity() * sizeof(float); }
};

/// Packs row-major B [K, N] into \p Out.
void packBInto(const float *B, int K, int N, PackedMat &Out);
/// Packs BT [N, K] (i.e. B^T stored row-major) into \p Out as the
/// implied [K, N] operand — the pre-pack form of gemmAccNT's B.
void packBTransposedInto(const float *BT, int N, int K, PackedMat &Out);

/// C += A * B with a pre-packed B. A is [m, B.K], C is [m, B.N].
/// Bit-identical to gemmAcc(A, B_rowmajor, C, M, B.K, B.N).
void gemmAccPacked(const float *A, const PackedMat &B, float *C, int M);
/// Column-tile range [T0, T1) of gemmAccPacked: writes only columns
/// [T0*GemmTileN, min(T1*GemmTileN, N)). Disjoint ranges touch disjoint
/// C columns, so ranges may run on different threads; each output
/// element is still a single sequential K-reduction (bit-identical at
/// any split).
void gemmAccPackedTiles(const float *A, const PackedMat &B, float *C,
                        int M, int T0, int T1);

/// gemmAccNT with a caller-owned pack scratch (grow-only) instead of
/// the implicit per-call buffer — callers on hot paths pin the scratch
/// lifetime in their state objects (EncodeScratch/BatchDecodeState).
void gemmAccNT(const float *A, const float *B, float *C, int M, int K,
               int N, PackedMat &PackScratch);

/// In-place numerically stable softmax over Row[0..N). ONE definition
/// shared by the autograd softmaxRows op and the graph-free inference
/// runtime (InferRuntime), so the training graph and the inference fast
/// path can never diverge bitwise. Vectorized (AVX2 exp) when available.
void softmaxRowInPlace(float *Row, int N);

/// LayerNorm of one row: Out[j] = (X[j] - mean) * invstd * Gamma[j] +
/// Beta[j], eps = 1e-5. Shared forward of the autograd layerNorm op, the
/// inference runtime's encoder, and the KV-cached decode paths (same
/// bit-exactness contract as softmaxRowInPlace). Mean/InvStd are reported
/// for the backward pass when requested.
void layerNormRow(const float *X, int N, const float *Gamma,
                  const float *Beta, float *Out, float *MeanOut = nullptr,
                  float *InvStdOut = nullptr);

// -- autograd ops ------------------------------------------------------------

Mat *matmul(Graph &G, Mat *A, Mat *B);     ///< [m,k]x[k,n].
Mat *matmulNT(Graph &G, Mat *A, Mat *B);   ///< [m,k]x[n,k]^T -> [m,n].
Mat *add(Graph &G, Mat *A, Mat *B);        ///< Elementwise (same shape).
Mat *addRow(Graph &G, Mat *A, Mat *Bias);  ///< Bias is [1,C].
Mat *scale(Graph &G, Mat *A, float S);
Mat *relu(Graph &G, Mat *A);
Mat *layerNorm(Graph &G, Mat *A, Mat *Gamma, Mat *Beta);
/// Row-wise softmax; when Causal, entry (i,j) with j>i is masked.
Mat *softmaxRows(Graph &G, Mat *A, bool Causal);
/// Gathers rows of Table by Ids, adding rows of Pos[0..n).
Mat *embed(Graph &G, Mat *Table, Mat *Pos, const std::vector<int> &Ids);
/// Copies columns [H*Dh, (H+1)*Dh) into a [T, Dh] tensor.
Mat *sliceCols(Graph &G, Mat *A, int ColStart, int Cols);
/// Concatenates tensors with equal rows along columns.
Mat *concatCols(Graph &G, const std::vector<Mat *> &Parts);
/// Inverted-dropout mask applied in training (paper trains WITHOUT
/// dropout; this exists for the ablation bench).
Mat *dropout(Graph &G, Mat *A, float P, uint64_t *RngState);

/// Mean token cross-entropy between Logits [T,V] and Targets [T]; fills
/// dLogits on the tape. Returns the loss.
float crossEntropy(Graph &G, Mat *Logits, const std::vector<int> &Targets);

} // namespace nn
} // namespace slade

#endif // SLADE_NN_MAT_H
