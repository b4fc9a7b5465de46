// perfbench_native — the compiled half of the repository benchmark.
// perfbench/run.py builds it and calls one subcommand per measurement:
//
//   perfbench_native provenance
//   perfbench_native lines  --scale S --seed N --out F
//   perfbench_native setup-grid --scale S --seed N --threads T
//   perfbench_native grid   --scale S --seed N --threads T --seconds D
//                           --out F [--traced 1 --store F --spans F]
//   perfbench_native load   --port P --conns C --lines F --out F
//                           (--closed 1 | --rate R --seconds D --seed N
//                            [--miss-share X --miss-scale S --window W])
//                           [--served F] [--spans F]
//   perfbench_native verify --served F --threads T [--seconds D] --out F
//   perfbench_native layers --lines F --hot-count N --store F --served F
//                           --threads T --spans F --out F
#include <cstdio>
#include <cstring>
#include <exception>

#include "bench.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_native <subcommand> [--flag value]...\n");
    return 2;
  }
  try {
    const Flags flags(argc, argv, 2);
    const char* cmd = argv[1];
    if (std::strcmp(cmd, "provenance") == 0) return cmd_provenance(flags);
    if (std::strcmp(cmd, "lines") == 0) return cmd_lines(flags);
    if (std::strcmp(cmd, "setup-grid") == 0) return cmd_setup_grid(flags);
    if (std::strcmp(cmd, "grid") == 0) return cmd_grid(flags);
    if (std::strcmp(cmd, "load") == 0) return cmd_load(flags);
    if (std::strcmp(cmd, "verify") == 0) return cmd_verify(flags);
    if (std::strcmp(cmd, "layers") == 0) return cmd_layers(flags);
    std::fprintf(stderr, "perfbench_native: unknown subcommand %s\n", cmd);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_native: %s\n", e.what());
    return 1;
  }
}
