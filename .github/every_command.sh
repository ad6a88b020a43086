#!/usr/bin/env bash
# Runs size, allocate, the three simulate algorithms and sweep on the data
# set of one config file, each under a 300 s timeout and with NumPy's
# RuntimeWarning raised as an error.
#
#   bash .github/every_command.sh path/to/config.json
set -euo pipefail
config="$1"

pvpool() {
  timeout 300 python -W error::RuntimeWarning -m pvpool "$@"
}

pvpool size --config "$config"
pvpool allocate --config "$config"
for algorithm in proposed mpc_myopic rulebased_myopic; do
  pvpool simulate --config "$config" --algorithm "$algorithm"
done
pvpool sweep --config "$config"
