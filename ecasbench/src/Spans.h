//===-- ecasbench/src/Spans.h - The benchmark's own span buffer -*- C++ -*-===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans (name, start, end, parent) recorded around the benchmark's calls
/// into each layer, kept apart from obs::TraceRecorder so a change to
/// ecas/obs cannot change how the benchmark measures. Single-threaded:
/// only the benchmark's main thread opens spans. Disabled, a span costs
/// one branch. Every closed span's duration feeds its name's samples; the
/// first Capacity spans are also kept whole and written out at the end;
/// later ones are counted as dropped.
///
//===----------------------------------------------------------------------===//

#ifndef ECASBENCH_SPANS_H
#define ECASBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ecasbench {

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Spans {
public:
  static constexpr uint32_t NoParent = UINT32_MAX;

  Spans(bool Enabled, size_t Capacity) : On(Enabled), Capacity(Capacity) {
    if (On)
      Kept.reserve(Capacity);
  }
  Spans(const Spans &) = delete;
  Spans &operator=(const Spans &) = delete;

  /// Id of span name \p Name, registering it on first use. Intern names
  /// outside timed loops: the lookup is a map search.
  uint32_t intern(const std::string &Name);

  /// RAII span under the interned name \p Name.
  class Scope {
  public:
    Scope(Spans &Owner, uint32_t Name) : Owner(Owner) {
      if (Owner.On)
        Owner.open(Name);
    }
    ~Scope() {
      if (Owner.On)
        Owner.close();
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Spans &Owner;
  };

  /// Records a span already timed by the caller, as a child of the open
  /// span — for calls whose name depends on their outcome.
  void add(uint32_t Name, int64_t Start, int64_t End) {
    if (!On)
      return;
    open(Name);
    Stack.back().Start = Start;
    close(End);
  }

  /// Durations in ns of every closed span named \p Name.
  const std::vector<double> &samples(uint32_t Name) const {
    return Samples[Name];
  }

  /// Writes the kept spans as JSON; \returns false on an I/O error.
  bool write(const std::string &Path) const;

private:
  struct Record {
    uint32_t Name = 0;
    uint32_t Parent = NoParent;
    int64_t Start = 0;
    int64_t End = 0;
  };
  struct Open {
    uint32_t Name;
    uint32_t Index; ///< into Kept, or NoParent when not kept
    int64_t Start;
  };

  void open(uint32_t Name) {
    uint32_t Index = NoParent;
    if (Kept.size() < Capacity) {
      Index = static_cast<uint32_t>(Kept.size());
      Kept.push_back({Name, Stack.empty() ? NoParent : Stack.back().Index,
                      0, 0});
    } else {
      ++Dropped;
    }
    Stack.push_back({Name, Index, nowNs()});
  }
  void close(int64_t End = nowNs()) {
    Open Top = Stack.back();
    Stack.pop_back();
    Samples[Top.Name].push_back(static_cast<double>(End - Top.Start));
    if (Top.Index != NoParent) {
      Kept[Top.Index].Start = Top.Start;
      Kept[Top.Index].End = End;
    }
  }

  bool On;
  size_t Capacity;
  std::map<std::string, uint32_t> Names;
  std::vector<std::string> NameTable;
  std::vector<std::vector<double>> Samples;
  std::vector<Record> Kept;
  std::vector<Open> Stack;
  uint64_t Dropped = 0;
};

} // namespace ecasbench

#endif // ECASBENCH_SPANS_H
