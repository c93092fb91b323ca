#include "kvs/workload.hh"

#include <cstring>

#include "base/logging.hh"
#include "sim/engine.hh"
#include "sim/rng.hh"

namespace elisa::kvs
{

const char *
mixToString(Mix mix)
{
    switch (mix) {
      case Mix::GetOnly:
        return "GET";
      case Mix::PutOnly:
        return "PUT";
      case Mix::Mixed9010:
        return "90/10";
    }
    return "?";
}

namespace
{

/**
 * One client VM issuing operations. It draws each operation one step
 * before it runs it, so the client can hint the next key to the host
 * (KvsClient::hostPrefetch) while the current operation runs; the draws
 * are the same calls in the same order either way.
 */
class ClientActor : public sim::Actor
{
  public:
    ClientActor(KvsClient &client, Mix mix, std::uint64_t key_space,
                std::uint64_t ops, std::uint64_t seed)
        : client(client), mix(mix), keySpace(key_space),
          remaining(ops), rng(seed)
    {
        startNs = client.vcpu().clock().now();
        next = draw();
    }

    SimNs
    actorNow() const override
    {
        return client.vcpu().clock().now();
    }

    bool
    step() override
    {
        const auto [id, is_put] = next;
        if (remaining > 1) {
            next = draw();
            client.hostPrefetch(makeKey(next.id));
        }

        if (is_put) {
            if (!client.put(makeKey(id), makeValue(id)))
                ++failed;
        } else {
            auto value = client.get(makeKey(id));
            if (!value) {
                // Prepopulated keys must always hit.
                ++failed;
            } else {
                ++hits;
                const Value want = makeValue(id);
                if (std::memcmp(value->data(), want.data(),
                                valueBytes) != 0) {
                    ++corrupt;
                }
            }
        }
        ++done;
        return --remaining > 0;
    }

    std::uint64_t done = 0;
    std::uint64_t hits = 0;
    std::uint64_t corrupt = 0;
    std::uint64_t failed = 0;
    SimNs startNs = 0;

    SimNs
    elapsed() const
    {
        return client.vcpu().clock().now() - startNs;
    }

  private:
    /** One drawn operation. */
    struct Op
    {
        std::uint64_t id;
        bool isPut;
    };

    /** Draw the key, then (for a mixed workload) GET or PUT. */
    Op
    draw()
    {
        const std::uint64_t id = rng.below(keySpace);
        switch (mix) {
          case Mix::GetOnly:
            return {id, false};
          case Mix::PutOnly:
            return {id, true};
          case Mix::Mixed9010:
            return {id, rng.chance(0.1)};
        }
        return {id, false};
    }

    KvsClient &client;
    Mix mix;
    std::uint64_t keySpace;
    std::uint64_t remaining;
    sim::Rng rng;
    Op next; ///< the operation the next step runs
};

} // anonymous namespace

KvsRunResult
runKvsWorkload(const std::vector<KvsClient *> &clients, Mix mix,
               std::uint64_t key_space, std::uint64_t ops_per_client,
               std::uint64_t seed, SimNs sample_period,
               std::function<void(SimNs)> sampler)
{
    panic_if(clients.empty(), "KVS workload needs at least one client");
    panic_if(key_space == 0 || ops_per_client == 0,
             "empty KVS workload");

    std::vector<std::unique_ptr<ClientActor>> actors;
    sim::Engine engine;
    for (std::size_t i = 0; i < clients.size(); ++i) {
        actors.push_back(std::make_unique<ClientActor>(
            *clients[i], mix, key_space, ops_per_client,
            seed * 0x9e3779b97f4a7c15ull + i));
        engine.add(actors.back().get());
    }
    engine.setSampler(sample_period, std::move(sampler));
    engine.run();

    KvsRunResult result;
    for (const auto &actor : actors) {
        result.ops += actor->done;
        result.hits += actor->hits;
        result.corrupt += actor->corrupt;
        result.failed += actor->failed;
        const double mops =
            actor->elapsed() == 0
                ? 0.0
                : (double)actor->done * 1e3 / (double)actor->elapsed();
        result.perClientMops.push_back(mops);
        result.totalMops += mops;
    }
    return result;
}

} // namespace elisa::kvs
