//===- BeamCore.h - shared beam-search selection core -----------*- C++ -*-===//
///
/// \file
/// The per-source beam-search bookkeeping shared by every decode driver:
/// the single-source loop in Beam.cpp and the continuous-batching serve
/// engine (serve/Engine.cpp). Keeping the
/// log-softmax / top-k / candidate-ordering / retirement logic in ONE
/// place is what makes the drivers byte-identical per source: they can
/// only differ in how rows are batched, never in which hypotheses
/// survive.
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
#include <cassert>
#include <chrono>
#include <cmath>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace slade {
namespace nn {
namespace beamcore {

/// Log-softmax into a reused output buffer.
inline void logSoftmax(const float *Logits, int V, std::vector<float> &Out) {
  float MaxV = -1e30f;
  for (int I = 0; I < V; ++I)
    MaxV = std::max(MaxV, Logits[I]);
  double Sum = 0;
  for (int I = 0; I < V; ++I)
    Sum += std::exp(static_cast<double>(Logits[I] - MaxV));
  float LogZ = MaxV + static_cast<float>(std::log(Sum));
  Out.resize(static_cast<size_t>(V));
  for (int I = 0; I < V; ++I)
    Out[static_cast<size_t>(I)] = Logits[I] - LogZ;
}

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
inline bool logSoftmaxAllowed(const float *Logits,
                              const std::vector<uint16_t> &Ids,
                              std::vector<float> &LogP) {
  float MaxV = -1e30f;
  for (uint16_t I : Ids)
    MaxV = std::max(MaxV, Logits[I]);
  double Sum = 0;
  for (uint16_t I : Ids)
    Sum += std::exp(static_cast<double>(Logits[I] - MaxV));
  float LogZ = MaxV + static_cast<float>(std::log(Sum));
  float MaskedLogP = -1e30f - LogZ;
  bool Above = true;
  for (uint16_t I : Ids) {
    LogP[I] = Logits[I] - LogZ;
    Above &= LogP[I] > MaskedLogP;
  }
  return Above;
}

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
/// selection forks/retires cursors exactly like K/V rows. Created from
/// BeamConfig::Constraint by every driver via init(); selectBeamStep /
/// finalizeBeams take it as an optional — nullptr (or a null Vocab) is
/// the unconstrained path, bit-for-bit identical to the pre-constraint
/// code.
struct ConstraintCtx {
  /// One allowedTokens result.
  struct Mask {
    std::vector<uint8_t> Allowed;
    std::vector<uint16_t> Ids; ///< The allowed ids, ascending.
    int Masked = 0;            ///< Disallowed ids.
  };
  /// The masks a decode has computed, keyed by PrefixOracle::stateKey.
  /// A decode's beams keep landing in the same few oracle states, so most
  /// beam steps reuse a mask.
  struct MaskCache {
    std::unordered_map<std::string, Mask> ByState;
    std::string Key; ///< Lookup scratch.
  };

  const tok::VocabConstraint *Vocab = nullptr;
  ConstraintStats *Stats = nullptr;
  std::vector<cc::PrefixOracle::State> States; ///< Parallel to Live.
  MaskCache Masks; ///< Lives for one decode (init() starts a new one).
  std::vector<cc::PrefixOracle::State> NextStates; ///< Step scratch.

  void init(const BeamConfig &Cfg) {
    Vocab = Cfg.Constraint;
    Stats = Cfg.Stats;
    States.clear();
    Masks.ByState.clear();
    if (Vocab)
      States.push_back(Vocab->start());
  }
  bool active() const { return Vocab != nullptr; }

  /// Vocab->allowedTokens(S), computed once per distinct state.
  const Mask &mask(const cc::PrefixOracle::State &S) {
    cc::PrefixOracle::stateKey(S, Masks.Key);
    auto It = Masks.ByState.find(Masks.Key);
    if (It == Masks.ByState.end()) {
      It = Masks.ByState.emplace(Masks.Key, Mask()).first;
      Mask &M = It->second;
      M.Masked = Vocab->allowedTokens(S, M.Allowed);
      for (size_t I = 0; I < M.Allowed.size(); ++I)
        if (M.Allowed[I])
          M.Ids.push_back(static_cast<uint16_t>(I));
    }
    return It->second;
  }
};

/// One expansion step for one source's beams: log-softmax + top-k per
/// live beam, deterministic candidate ordering (score desc, then beam,
/// then token — ties never diverge between decode paths), EOS/PAD
/// candidates retire into \p Done, survivors replace \p Live. Shared by
/// the single-source search loop and the serve engine, so their
/// per-source decisions are the same code.
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
      const ConstraintCtx::Mask &M = CC->mask(CC->States[BI]);
      assert(M.Allowed.size() == static_cast<size_t>(Vocab));
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
      H.Score = C.Score / std::pow(Len, Cfg.LengthPenalty);
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
    H.Score = (M.Score - 5.0f) / std::pow(Len, Cfg.LengthPenalty);
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

} // namespace beamcore
} // namespace nn
} // namespace slade

#endif // SLADE_NN_BEAMCORE_H
