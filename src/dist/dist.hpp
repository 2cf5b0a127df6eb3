// Umbrella header for the multi-device model: shard planner,
// interconnect model, multi-device simulator.
#pragma once

#include "dist/interconnect.hpp"
#include "dist/multi_device.hpp"
#include "dist/shard_planner.hpp"
