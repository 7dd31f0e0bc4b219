//===-- ecasbench/src/Spans.cpp - The benchmark's own span buffer ---------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <algorithm>
#include <cstdio>

using namespace ecasbench;

uint32_t Spans::intern(const std::string &Name) {
  auto [It, Inserted] =
      Names.emplace(Name, static_cast<uint32_t>(NameTable.size()));
  if (Inserted) {
    NameTable.push_back(Name);
    Samples.emplace_back();
  }
  return It->second;
}

bool Spans::write(const std::string &Path) const {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  int64_t Origin = Kept.empty() ? 0 : Kept.front().Start;
  std::fprintf(Out, "{\"dropped\": %llu, \"spans\": [\n",
               static_cast<unsigned long long>(Dropped));
  for (size_t I = 0; I != Kept.size(); ++I) {
    const Record &R = Kept[I];
    std::fprintf(Out,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %lld}%s\n",
                 I, NameTable[R.Name].c_str(),
                 static_cast<long long>(R.Start - Origin),
                 static_cast<long long>(R.End - Origin),
                 R.Parent == NoParent ? -1LL : static_cast<long long>(R.Parent),
                 I + 1 == Kept.size() ? "" : ",");
  }
  // Every name's samples, including those of dropped spans.
  std::fprintf(Out, "], \"summary\": {\n");
  for (size_t N = 0; N != NameTable.size(); ++N) {
    std::vector<double> S = Samples[N];
    std::sort(S.begin(), S.end());
    double Sum = 0.0;
    for (double V : S)
      Sum += V;
    auto At = [&](double Q) {
      return S.empty() ? 0.0 : S[static_cast<size_t>(Q * (S.size() - 1))];
    };
    std::fprintf(Out,
                 "\"%s\": {\"count\": %zu, \"total_ns\": %.0f, "
                 "\"min_ns\": %.0f, \"p50_ns\": %.0f, \"p99_ns\": %.0f, "
                 "\"samples_ns\": [",
                 NameTable[N].c_str(), S.size(), Sum, At(0.0), At(0.5),
                 At(0.99));
    // Raw samples only for names with few of them (sessions, setup).
    if (Samples[N].size() <= 64)
      for (size_t I = 0; I != Samples[N].size(); ++I)
        std::fprintf(Out, "%s%.0f", I ? ", " : "", Samples[N][I]);
    std::fprintf(Out, "]}%s\n", N + 1 == NameTable.size() ? "" : ",");
  }
  std::fprintf(Out, "}}\n");
  return std::fclose(Out) == 0;
}
