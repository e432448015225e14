#include "fpm/registry.h"

#include "fpm/brute_force.h"
#include "fpm/eclat.h"
#include "fpm/fpgrowth.h"

namespace scube {
namespace fpm {

std::vector<std::string> MinerNames() {
  return {"fpgrowth", "eclat", "brute-force"};
}

Result<std::unique_ptr<FrequentItemsetMiner>> MakeMiner(
    const std::string& name) {
  if (name == "fpgrowth") {
    return std::unique_ptr<FrequentItemsetMiner>(new FpGrowthMiner());
  }
  if (name == "eclat") {
    return std::unique_ptr<FrequentItemsetMiner>(new EclatMiner());
  }
  if (name == "brute-force") {
    return std::unique_ptr<FrequentItemsetMiner>(new BruteForceMiner());
  }
  return Status::NotFound("unknown miner engine: " + name);
}

}  // namespace fpm
}  // namespace scube
