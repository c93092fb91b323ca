#include "sim/cost_model.hh"

#include "base/logging.hh"

namespace elisa::sim
{

std::string
CostModel::summary() const
{
    return detail::format(
        "cost model: cpu=%.1fGHz vmfunc=%llu gate=%llu vmexit=%llu "
        "vmentry=%llu dispatch=%llu => elisa_rtt=%llu vmcall_rtt=%llu "
        "(ratio %.2fx), nic=%.0fGbE",
        cpuGhz,
        (unsigned long long)vmfuncNs,
        (unsigned long long)gateCodeNs,
        (unsigned long long)vmexitNs,
        (unsigned long long)vmentryNs,
        (unsigned long long)hypercallDispatchNs,
        (unsigned long long)elisaRttNs(),
        (unsigned long long)vmcallRttNs(),
        (double)vmcallRttNs() / (double)elisaRttNs(),
        nicLineRateBps / 1e9);
}

} // namespace elisa::sim
