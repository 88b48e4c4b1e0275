//===- BeamCore.h - beam selection and the batched driver -------*- C++ -*-===//
///
/// \file
/// The beam search itself: the per-source selection logic (log-softmax,
/// top-k, candidate ordering, retirement) and BeamBatch, the one driver
/// that steps it over a fused batch of sources. nn::beamSearch runs one
/// source through a BeamBatch and every serve engine shard
/// (serve/Engine.cpp) owns one, so a solo search and a served request
/// run the same code and can only differ in which other rows share the
/// batch, never in which hypotheses survive. The sequential reference
/// (beamSearchSequential) calls the same selection functions from its
/// own loop.
///
/// Internal header — not part of the public API surface (include from
/// .cpp files only).
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_NN_BEAMCORE_H
#define SLADE_NN_BEAMCORE_H

#include "nn/Beam.h"
#include "tok/VocabConstraint.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

namespace slade {
namespace nn {
namespace beamcore {

// The two softmaxes are defined out of line (Beam.cpp) on purpose.
// Inlined into a selection loop, GCC 12 at -O3 with AVX2 let a vectorized
// loop leave the upper YMM state dirty into the next row's scalar
// std::exp calls, which then ran about 30x slower (a 64-token k=5 search
// went from 5.7 to 29 ms). A function returns with that state clean.
// Their sums run on exp256Pd (nn/SimdExp.h), but each row still calls
// scalar libm: std::log, and std::exp on builds without AVX2+FMA.

/// Log-softmax into a reused output buffer.
void logSoftmax(const float *Logits, int V, std::vector<float> &Out);

/// Log-probabilities of the allowed entries \p Ids (ascending) of a row
/// whose other entries are masked to -1e30f, as logSoftmax gives them
/// over the masked row; other LogP entries are not written. The sum
/// skips the masked entries. Returns true when every allowed entry ranks
/// strictly above the masked ones: then every allowed logit, and so the
/// maximum, lies above -1e30f, a masked entry's exp(-1e30f - MaxV) is
/// exactly +0.0 (adding it would leave the double sum unchanged), the
/// results are bit-exact, and masked entries can only trail the row's
/// top-k. Otherwise (logits at or near -1e30f, or NaN) the caller takes
/// the full path.
bool logSoftmaxAllowed(const float *Logits, const std::vector<uint16_t> &Ids,
                       std::vector<float> &LogP);

/// Top-K of the N candidate token ids IdOf(0..N) by (log-prob desc,
/// index asc) via a bounded min-heap: O(N log K), scratch reused across
/// beams and steps. The result is the top K of the candidate set under
/// that total order, so for a subset of the vocabulary it is the subset's
/// members among the full top-K, in the same order.
template <typename IdOf>
inline void topKOf(const std::vector<float> &LogP, int N, const IdOf &Id,
                   int K, std::vector<std::pair<float, int>> &Heap,
                   std::vector<int> &Out) {
  K = std::min(K, N);
  // "Better" orders by higher log-prob, ties to the lower token id.
  auto Better = [](const std::pair<float, int> &A,
                   const std::pair<float, int> &B) {
    return A.first > B.first || (A.first == B.first && A.second < B.second);
  };
  Heap.clear();
  for (int C = 0; C < N; ++C) {
    int I = Id(C);
    std::pair<float, int> Cand{LogP[static_cast<size_t>(I)], I};
    if (static_cast<int>(Heap.size()) < K) {
      Heap.push_back(Cand);
      std::push_heap(Heap.begin(), Heap.end(), Better);
    } else if (Better(Cand, Heap.front())) {
      std::pop_heap(Heap.begin(), Heap.end(), Better);
      Heap.back() = Cand;
      std::push_heap(Heap.begin(), Heap.end(), Better);
    }
  }
  std::sort_heap(Heap.begin(), Heap.end(), Better); // Best first.
  Out.clear();
  for (const auto &P : Heap)
    Out.push_back(P.second);
}

/// Top-K over the whole vocabulary.
inline void topK(const std::vector<float> &LogP, int K,
                 std::vector<std::pair<float, int>> &Heap,
                 std::vector<int> &Out) {
  topKOf(LogP, static_cast<int>(LogP.size()), [](int C) { return C; }, K,
         Heap, Out);
}

struct Cand {
  float Score;
  int BeamIdx;
  int Token;
};

struct BeamMeta {
  std::vector<int> Tokens;
  float Score = 0;
};

struct SelectScratch {
  std::vector<float> LogP;
  tok::VocabConstraint::MaskScratch Mask;
  std::vector<std::pair<float, int>> Heap;
  std::vector<int> Top;
  std::vector<Cand> Cands;
};

struct SelectResult {
  std::vector<int> SrcIdx; ///< Parent beam index (local) per survivor.
  std::vector<int> Tokens; ///< Token fed to each survivor.
  /// The finished-hypothesis quota was reached: the caller must stop
  /// stepping and penalize the PRE-expansion Live set (left untouched).
  bool StopNow = false;
};

/// Per-source grammar-constraint state for one decode: each live beam
/// carries an oracle cursor (States[i] parallels Live[i]); survivor
/// selection forks/retires cursors exactly like K/V rows. Masks come from
/// the vocabulary's shared cache (tok::VocabConstraint::mask). Created
/// from BeamConfig::Constraint by every driver via init(); selectBeamStep
/// / finalizeBeams take it as an optional — nullptr (or a null Vocab) is
/// the unconstrained path, bit-for-bit identical to the pre-constraint
/// code.
struct ConstraintCtx {
  const tok::VocabConstraint *Vocab = nullptr;
  ConstraintStats *Stats = nullptr;
  std::vector<cc::PrefixOracle::State> States; ///< Parallel to Live.
  std::vector<cc::PrefixOracle::State> NextStates; ///< Step scratch.

  void init(const BeamConfig &Cfg) {
    Vocab = Cfg.Constraint;
    Stats = Cfg.Stats;
    States.clear();
    if (Vocab)
      States.push_back(Vocab->start());
  }
  bool active() const { return Vocab != nullptr; }
};

/// One expansion step for one source's beams: log-softmax + top-k per
/// live beam, deterministic candidate ordering (score desc, then beam,
/// then token — ties never diverge between decode paths), EOS/PAD
/// candidates retire into \p Done, survivors replace \p Live. Shared by
/// BeamBatch and the sequential reference loop, so their per-source
/// decisions are the same code. A constraint must cover exactly \p Vocab
/// ids (nn::searchable).
template <typename LogitsOf>
SelectResult selectBeamStep(std::vector<BeamMeta> &Live,
                            std::vector<Hypothesis> &Done,
                            const LogitsOf &Logits, int Vocab,
                            const BeamConfig &Cfg, SelectScratch &S,
                            ConstraintCtx *CC = nullptr) {
  SelectResult R;
  S.Cands.clear();
  bool Constrained = CC && CC->active();
  for (size_t BI = 0; BI < Live.size(); ++BI) {
    const float *Row = Logits(BI);
    const uint8_t *Allowed = nullptr;
    if (Constrained) {
      // Mask pieces whose text kills every syntactic continuation of
      // this beam BEFORE softmax/top-k, so probability mass and the
      // candidate pool only ever cover viable tokens.
      auto T0 = std::chrono::steady_clock::now();
      const tok::VocabConstraint::Mask &M =
          CC->Vocab->mask(CC->States[BI], S.Mask);
      Allowed = M.Allowed.data();
      if (CC->Stats) {
        CC->Stats->TokensMasked += static_cast<uint64_t>(M.Masked);
        CC->Stats->OracleSeconds +=
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          T0)
                .count();
        if (M.Masked >= Vocab)
          ++CC->Stats->BeamsKilled; // Contributes no candidates below.
      }
      if (M.Ids.empty())
        continue; // A fully-masked beam dies here (its K/V row frees).
      // The masked row's log-softmax and top-k, over the allowed ids: a
      // masked entry would only ever fill a top-k slot to be dropped
      // below.
      S.LogP.resize(static_cast<size_t>(Vocab));
      if (logSoftmaxAllowed(Row, M.Ids, S.LogP)) {
        topKOf(
            S.LogP, static_cast<int>(M.Ids.size()),
            [&](int C) { return static_cast<int>(M.Ids[C]); }, Cfg.BeamSize,
            S.Heap, S.Top);
      } else {
        for (int I = 0; I < Vocab; ++I)
          S.LogP[static_cast<size_t>(I)] = Allowed[I] ? Row[I] : -1e30f;
        logSoftmax(S.LogP.data(), Vocab, S.LogP); // In place, per entry.
        topK(S.LogP, Cfg.BeamSize, S.Heap, S.Top);
      }
    } else {
      logSoftmax(Row, Vocab, S.LogP);
      topK(S.LogP, Cfg.BeamSize, S.Heap, S.Top);
    }
    for (int Tok : S.Top) {
      if (Allowed && !Allowed[Tok])
        continue; // Only a masked top-k filler: never a candidate.
      S.Cands.push_back({Live[BI].Score + S.LogP[static_cast<size_t>(Tok)],
                         static_cast<int>(BI), Tok});
    }
  }
  std::sort(S.Cands.begin(), S.Cands.end(),
            [](const Cand &A, const Cand &B) {
              if (A.Score != B.Score)
                return A.Score > B.Score;
              if (A.BeamIdx != B.BeamIdx)
                return A.BeamIdx < B.BeamIdx;
              return A.Token < B.Token;
            });

  std::vector<BeamMeta> Next;
  for (const Cand &C : S.Cands) {
    if (static_cast<int>(Next.size()) >= Cfg.BeamSize)
      break;
    if (C.Token == Transformer::EosId || C.Token == Transformer::PadId) {
      Hypothesis H;
      H.Tokens = Live[static_cast<size_t>(C.BeamIdx)].Tokens;
      float Len = static_cast<float>(H.Tokens.size()) + 1.0f;
      H.Score = C.Score / Len;
      Done.push_back(std::move(H));
      continue;
    }
    BeamMeta M;
    M.Tokens = Live[static_cast<size_t>(C.BeamIdx)].Tokens;
    M.Tokens.push_back(C.Token);
    M.Score = C.Score;
    Next.push_back(std::move(M));
    R.SrcIdx.push_back(C.BeamIdx);
    R.Tokens.push_back(C.Token);
  }
  if (static_cast<int>(Done.size()) >= Cfg.BeamSize) {
    R.StopNow = true; // Pre-expansion Live falls through penalized.
    return R;
  }
  if (Constrained) {
    // Fork the surviving oracle cursors exactly like the K/V rows the
    // caller is about to reorder (snapshot = copy, advance by the
    // emitted piece's text).
    CC->NextStates.clear();
    CC->NextStates.reserve(R.SrcIdx.size());
    for (size_t I = 0; I < R.SrcIdx.size(); ++I) {
      cc::PrefixOracle::State NS =
          CC->States[static_cast<size_t>(R.SrcIdx[I])];
      CC->Vocab->advanceToken(NS, R.Tokens[I]);
      CC->NextStates.push_back(NS);
    }
    CC->States.swap(CC->NextStates);
  }
  Live = std::move(Next);
  return R;
}

/// Unfinished beams become (penalized) hypotheses so we always return
/// something; then sort best-first and cap at BeamSize. Under a
/// constraint (\p CC), unfinished beams whose text is not a complete
/// valid translation unit are dropped instead — no syntactically broken
/// candidate may reach IO-verification (the result may then be empty).
inline std::vector<Hypothesis> finalizeBeams(std::vector<BeamMeta> &&Live,
                                             std::vector<Hypothesis> &&Done,
                                             const BeamConfig &Cfg,
                                             const ConstraintCtx *CC =
                                                 nullptr) {
  bool Constrained = CC && CC->active();
  for (size_t I = 0; I < Live.size(); ++I) {
    BeamMeta &M = Live[I];
    if (Constrained && (I >= CC->States.size() ||
                        !CC->Vocab->acceptsEnd(CC->States[I])))
      continue;
    Hypothesis H;
    H.Tokens = std::move(M.Tokens);
    float Len = static_cast<float>(H.Tokens.size()) + 1.0f;
    H.Score = (M.Score - 5.0f) / Len;
    Done.push_back(std::move(H));
  }
  std::sort(Done.begin(), Done.end(),
            [](const Hypothesis &A, const Hypothesis &B) {
              if (A.Score != B.Score)
                return A.Score > B.Score;
              return A.Tokens < B.Tokens;
            });
  if (static_cast<int>(Done.size()) > Cfg.BeamSize)
    Done.resize(static_cast<size_t>(Cfg.BeamSize));
  return std::move(Done);
}

/// Beam search over up to MaxSources sources in one fused
/// BatchDecodeState: a source is admitted into a free self-K/V segment,
/// then every step() runs one stepDecodeBatch over all live rows and one
/// selectBeamStep per source, and retires the sources that finished.
/// Each source's hypotheses equal a solo search's, whatever else shares
/// the batch or when it joined (per-row forward results never depend on
/// the other rows). Requires nn::searchable(Model, Cfg).
class BeamBatch {
public:
  /// A source retired by step(): its segment (free again), the
  /// selection steps it took, and its finalized hypotheses.
  struct Finished {
    int Seg = -1;
    int Steps = 0;
    std::vector<Hypothesis> Hyps;
  };

  /// A source takes at most Cfg.MaxLen forward steps, so that is each
  /// segment's capacity. The state is sized for at least one beam and
  /// one step, so construction is safe at any config.
  BeamBatch(const Transformer &Model, const BeamConfig &Cfg, int MaxSources)
      : Model(Model), Cfg(Cfg),
        St(Model.startDecodeStream(MaxSources, std::max(1, Cfg.BeamSize),
                                   std::max(1, Cfg.MaxLen))) {
    // LIFO, handing out 0, 1, 2, ... first: a retire-then-admit reuses
    // the segment just freed.
    for (int Seg = MaxSources - 1; Seg >= 0; --Seg)
      Free.push_back(Seg);
  }

  /// The decode state, e.g. to attach an intra-tick pool (St.TP).
  Transformer::BatchDecodeState &state() { return St; }
  /// Live rows: the rows the next step() feeds.
  int rows() const { return St.B; }

  /// Binds \p Enc's BOS beam to a free segment and returns the segment,
  /// or -1 when none is free or \p Enc was built from another weight
  /// version than the live rows (retry once the batch drains).
  int admit(std::shared_ptr<const Transformer::EncoderCache> Enc) {
    if (Free.empty() || Model.admitStreamRow(St, Free.back(), Enc) < 0)
      return -1;
    Srcs.emplace_back();
    Source &S = Srcs.back();
    S.Seg = Free.back();
    Free.pop_back();
    S.Live.resize(1);
    S.CC.init(Cfg);
    S.NextTokens = {Transformer::BosId};
    return S.Seg;
  }

  /// Drops the live source in segment \p Seg unfinished; the other
  /// sources' results are unaffected.
  void abort(int Seg) {
    Model.abortStreamSegment(St, Seg);
    Srcs.erase(std::find_if(Srcs.begin(), Srcs.end(),
                            [Seg](const Source &S) { return S.Seg == Seg; }));
    Free.push_back(Seg);
  }

  /// One forward over every live row, then each source's selection.
  /// Sources that hit the EOS quota, ran out of beams or reached
  /// Cfg.MaxLen steps are appended to \p Out, in row order.
  void step(std::vector<Finished> &Out) {
    if (Srcs.empty())
      return;
    Tokens.clear();
    for (const Source &S : Srcs)
      Tokens.insert(Tokens.end(), S.NextTokens.begin(), S.NextTokens.end());
    Logits = Model.stepDecodeBatch(St, Tokens);
    const size_t Vocab = static_cast<size_t>(Model.config().Vocab);
    SrcIdx.clear();
    size_t RowEnd = 0, Keep = 0;
    for (size_t I = 0; I < Srcs.size(); ++I) {
      Source &S = Srcs[I];
      const size_t RowBase = RowEnd;
      RowEnd += S.Live.size();
      SelectResult R = selectBeamStep(
          S.Live, S.Done,
          [&](size_t BI) { return Logits.data() + (RowBase + BI) * Vocab; },
          static_cast<int>(Vocab), Cfg, Scratch, &S.CC);
      ++S.Steps;
      if (R.StopNow || S.Live.empty() || S.Steps >= Cfg.MaxLen) {
        Free.push_back(S.Seg);
        Out.push_back({S.Seg, S.Steps,
                       finalizeBeams(std::move(S.Live), std::move(S.Done),
                                     Cfg, &S.CC)});
        continue;
      }
      for (int Idx : R.SrcIdx)
        SrcIdx.push_back(static_cast<int>(RowBase) + Idx);
      S.NextTokens = std::move(R.Tokens);
      if (Keep != I)
        Srcs[Keep] = std::move(S);
      ++Keep;
    }
    Srcs.erase(Srcs.begin() + static_cast<std::ptrdiff_t>(Keep), Srcs.end());
    // Survivor gather; B drops to zero when every source retired.
    Model.reorderBeams(St, SrcIdx);
  }

private:
  /// One live source; Srcs is in row order (a source's rows are
  /// contiguous, and admitStreamRow appends).
  struct Source {
    int Seg = -1;
    std::vector<BeamMeta> Live;
    std::vector<Hypothesis> Done;
    ConstraintCtx CC;
    /// Tokens its rows take next step (Bos when admitted); parallel to
    /// Live.
    std::vector<int> NextTokens;
    int Steps = 0;
  };

  const Transformer &Model;
  BeamConfig Cfg;
  Transformer::BatchDecodeState St;
  std::vector<int> Free;
  std::vector<Source> Srcs;
  SelectScratch Scratch;
  std::vector<float> Logits;
  std::vector<int> Tokens, SrcIdx;
};

} // namespace beamcore
} // namespace nn
} // namespace slade

#endif // SLADE_NN_BEAMCORE_H
