#include "sim/config.h"

#include "common/check.h"

namespace moca::sim {

namespace {
constexpr std::uint64_t scaled_mib(std::uint64_t paper_mib) {
  return paper_mib * MiB / kCapacityScale;
}
}  // namespace

std::unique_ptr<dram::MemoryModule> make_module(const ModuleSpec& spec,
                                                EventQueue& events) {
  dram::DeviceConfig device = dram::make_device(spec.kind);
  if (spec.interleave_granule_bytes != 0) {
    device.geometry.interleave_granule_bytes = spec.interleave_granule_bytes;
  }
  return std::make_unique<dram::MemoryModule>(
      std::move(device), spec.capacity_bytes, spec.attached_channels, events,
      spec.name);
}

MemSystemConfig homogeneous(dram::MemKind kind) {
  // Short names follow the paper's figure legends (Homogen-LP, Homogen-RL).
  const char* short_name = "";
  switch (kind) {
    case dram::MemKind::kDdr3:
      short_name = "DDR3";
      break;
    case dram::MemKind::kDdr4:
      short_name = "DDR4";
      break;
    case dram::MemKind::kLpddr2:
      short_name = "LP";
      break;
    case dram::MemKind::kRldram3:
      short_name = "RL";
      break;
    case dram::MemKind::kHbm:
      short_name = "HBM";
      break;
  }
  MemSystemConfig c;
  c.name = std::string("Homogen-") + short_name;
  c.modules.push_back(ModuleSpec{kind, scaled_mib(2048), 4,
                                 dram::to_string(kind) + "-2GB"});
  return c;
}

MemSystemConfig knl_like() {
  MemSystemConfig c;
  c.name = "KNL-like";
  c.modules = {
      {dram::MemKind::kDdr4, scaled_mib(1536), 3, "DDR4-1.5GB"},
      {dram::MemKind::kHbm, scaled_mib(512), 1, "HBM-512MB"},
  };
  return c;
}

MemSystemConfig heterogeneous(int config_number) {
  using dram::MemKind;
  MemSystemConfig c;
  switch (config_number) {
    case 1:
      c.name = "Hetero-config1";
      c.modules = {
          {MemKind::kRldram3, scaled_mib(256), 1, "RL-256MB"},
          {MemKind::kHbm, scaled_mib(768), 1, "HBM-768MB"},
          {MemKind::kLpddr2, scaled_mib(512), 1, "LP-512MB-a"},
          {MemKind::kLpddr2, scaled_mib(512), 1, "LP-512MB-b"},
      };
      return c;
    case 2:
      c.name = "Hetero-config2";
      c.modules = {
          {MemKind::kRldram3, scaled_mib(512), 1, "RL-512MB"},
          {MemKind::kHbm, scaled_mib(512), 1, "HBM-512MB"},
          {MemKind::kLpddr2, scaled_mib(512), 1, "LP-512MB-a"},
          {MemKind::kLpddr2, scaled_mib(512), 1, "LP-512MB-b"},
      };
      return c;
    case 3:
      c.name = "Hetero-config3";
      c.modules = {
          {MemKind::kRldram3, scaled_mib(768), 1, "RL-768MB"},
          {MemKind::kHbm, scaled_mib(768), 1, "HBM-768MB"},
          {MemKind::kLpddr2, scaled_mib(512), 1, "LP-512MB"},
      };
      return c;
    default:
      MOCA_CHECK_MSG(false, "unknown heterogeneous config " << config_number);
      return c;
  }
}

}  // namespace moca::sim
