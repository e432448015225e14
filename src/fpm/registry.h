// Miner registry: construct a miner engine by name.

#ifndef SCUBE_FPM_REGISTRY_H_
#define SCUBE_FPM_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "fpm/miner.h"

namespace scube {
namespace fpm {

/// Names of all registered engines ("fpgrowth", "eclat", "brute-force").
std::vector<std::string> MinerNames();

/// Instantiates the engine with the given name; NotFound for unknown names.
Result<std::unique_ptr<FrequentItemsetMiner>> MakeMiner(
    const std::string& name);

}  // namespace fpm
}  // namespace scube

#endif  // SCUBE_FPM_REGISTRY_H_
