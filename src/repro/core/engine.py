"""The round-based simulation engine.

Two layers:

* :class:`Channel` — the physical layer. Given the ascending ids of one
  round's broadcasters it resolves collisions and faults and reports who
  received from whom.
  This is the single place where the model semantics of the paper's
  Section 3.1 (see PAPER.md) are implemented; both the distributed
  simulator and the centralized schedule executors
  (:mod:`repro.schedules`) are built on it.
* :class:`Simulator` — drives a node
  :class:`~repro.core.population.Population` against a channel, one
  ``broadcasters``/``deliver`` call per round, until a stop predicate
  fires or a round budget is exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.errors import SimulationError
from repro.core.faults import AdversaryConfig, FaultConfig
from repro.core.network import RadioNetwork
from repro.core.population import Population, ProtocolPopulation
from repro.core.protocol import NodeProtocol
from repro.core.trace import ChannelCounters
from repro.telemetry.metrics import METRICS as _METRICS
from repro.timeline.capture import maybe_bind_simulator
from repro.timeline.recorder import NULL_TIMELINE
from repro.util.rng import RandomSource, spawn_rng

__all__ = ["Channel", "RoundResult", "Simulator"]

# channel hot-seam metrics: registered once at import, bulk-incremented
# per round behind the single _METRICS.enabled attribute read
_M_ROUNDS = _METRICS.counter(
    "repro_channel_rounds_total", "channel rounds resolved"
)
_M_BROADCASTS = _METRICS.counter(
    "repro_channel_broadcasts_total", "broadcast actions offered to the channel"
)
_M_DELIVERIES = _METRICS.counter(
    "repro_channel_deliveries_total", "successful unique-neighbor deliveries"
)
_M_COLLISIONS = _METRICS.counter(
    "repro_channel_collisions_total", "listeners silenced by collisions"
)
_M_SENDER_FAULTS = _METRICS.counter(
    "repro_channel_sender_faults_total", "broadcaster-rounds that sent noise"
)
_M_RECEIVER_FAULTS = _METRICS.counter(
    "repro_channel_receiver_faults_total",
    "unique receptions replaced by noise at the receiver",
)


@dataclass
class RoundResult:
    """Everything that happened on the channel in one round.

    ``receivers`` and ``senders`` are aligned columns: listener
    ``receivers[i]`` (ascending) received the packet of broadcaster
    ``senders[i]``. The channel never sees packets; the caller that
    chose the broadcasters knows what each one sent.
    """

    round_index: int
    receivers: list[int] = field(default_factory=list)
    senders: list[int] = field(default_factory=list)
    #: listeners whose unique reception was replaced by noise (either fault)
    noise_receivers: list[int] = field(default_factory=list)
    #: listeners that heard >= 2 broadcasters
    collision_receivers: list[int] = field(default_factory=list)
    #: broadcasters whose transmission was noise (sender faults only)
    faulty_senders: list[int] = field(default_factory=list)


class Channel:
    """The noisy radio channel over a fixed network.

    A round's input is the ascending list of broadcaster ids; whether a
    listener receives depends only on how many of its neighbors
    broadcast, never on what they send. Round resolution has two
    interchangeable kernels:

    * a **vectorized** numpy kernel (the default) that gathers every
      broadcaster's neighbors in one indexing call, computes hear-counts
      with ``np.bincount``, and draws all fault coins in bulk;
    * a **scalar reference** (:meth:`transmit_reference`) — the original
      per-node loop, kept as the executable specification. Both kernels
      consume the channel RNG identically (one bulk Bernoulli draw per
      fault stage, in ascending node order — bulk-stream v2, see
      PERFORMANCE.md), so for the same seed they agree reception for
      reception; the test suite cross-checks this property.

    Because the kernels are outcome-identical, ``kernel="auto"`` (the
    default) picks per round by a bound on the neighbor-gather work:
    rounds with a few low-degree broadcasters stay on the scalar loop
    (numpy call latency would dominate), larger rounds go vectorized.

    Parameters
    ----------
    network:
        Topology to simulate on.
    faults:
        Fault model and probability. Internally this is just the ``iid``
        adversary: the channel wraps it in
        :class:`~repro.adversary.iid.IIDFaults`, whose hooks draw the
        exact bulk coins this class drew before the adversary interface
        existed — legacy runs are byte-identical.
    rng:
        Seed / source for fault/adversary sampling.
    kernel:
        ``"auto"`` (default), ``"vectorized"``, or ``"scalar"`` — force a
        resolution kernel, mainly for benchmarks and cross-checks.
    adversary:
        Optional corruption strategy replacing the i.i.d. fault coins: an
        :class:`~repro.adversary.base.Adversary` instance (bound to this
        channel; one channel per instance) or a serializable
        :class:`~repro.core.faults.AdversaryConfig` built via the
        registry. Mutually exclusive with a non-faultless ``faults``.
    """

    #: auto-dispatch threshold: vectorize once a round may gather this
    #: many (broadcaster, neighbor) pairs, bounded by broadcasters times
    #: the maximum degree — below it numpy call latency dominates
    VECTORIZE_MIN_WORK = 64

    def __init__(
        self,
        network: RadioNetwork,
        faults: FaultConfig = FaultConfig.faultless(),
        rng: "int | RandomSource | None" = None,
        kernel: str = "auto",
        adversary: "Adversary | AdversaryConfig | None" = None,
    ) -> None:
        if kernel not in ("auto", "vectorized", "scalar"):
            raise ValueError(
                f"kernel must be 'auto', 'vectorized', or 'scalar'; got {kernel!r}"
            )
        self.network = network
        self.faults = faults
        self.rng = spawn_rng(rng)
        # flight recorder (repro.timeline): the disabled default is a
        # module-level null object, so the round epilogue pays one
        # attribute read + branch when no timeline capture is armed
        self.timeline = NULL_TIMELINE
        self.kernel = kernel
        self.counters = ChannelCounters()
        self.round_index = 0
        # deferred import: repro.adversary builds on repro.core.faults, so
        # a module-level import here would be circular
        from repro.adversary.base import Adversary
        from repro.adversary.iid import IIDFaults

        if adversary is None:
            adversary = IIDFaults.from_fault_config(faults)
        else:
            if not faults.is_faultless:
                raise ValueError(
                    "pass either faults or an adversary, not both: the iid "
                    "adversary subsumes FaultConfig"
                )
            if isinstance(adversary, AdversaryConfig):
                from repro.adversary.registry import build_adversary

                adversary = build_adversary(adversary)
            elif not isinstance(adversary, Adversary):
                raise TypeError(
                    "adversary must be an Adversary or AdversaryConfig, got "
                    f"{type(adversary).__name__}"
                )
        adversary.bind(network, self.rng)
        self.adversary = adversary
        n = network.n
        self._max_degree = max(map(len, network.neighbors))
        # scratch buffers reused across rounds (scalar reference kernel)
        self._hear_count = [0] * n
        self._hear_from = [0] * n
        self._touched: list[int] = []
        # vectorized kernel scratch: each listener's last-heard sender;
        # slot n is the padding sink of the network's padded table
        self._sender_of = np.zeros(n + 1, dtype=np.int64)

    def transmit(self, broadcasters: Sequence[int]) -> RoundResult:
        """Resolve one round given the ascending broadcaster ids.

        Implements the model: a listener receives iff exactly one neighbor
        broadcasts; sender faults silence a broadcaster toward *all* its
        neighbors; receiver faults independently silence each unique
        reception. Returns the full :class:`RoundResult` and advances the
        round counter. Raises :class:`SimulationError` unless the ids are
        ints in ``[0, n)``, strictly ascending.
        """
        if self._scalar_kernel_for(len(broadcasters)):
            return self._run_round(
                self._id_list(broadcasters), self._resolve_scalar
            )
        return self._run_round(
            self._id_array(broadcasters), self._resolve_vectorized
        )

    def transmit_reference(self, broadcasters: Sequence[int]) -> RoundResult:
        """Scalar reference kernel: same semantics, same RNG stream.

        Produces a :class:`RoundResult` identical to :meth:`transmit` for
        the same channel state; exists as the executable specification the
        vectorized kernel is property-checked against, and as the
        baseline for `repro bench`.
        """
        return self._run_round(self._id_list(broadcasters), self._resolve_scalar)

    # -- kernel internals ---------------------------------------------------

    def _scalar_kernel_for(self, count: int) -> bool:
        """Kernel dispatch for ``count`` broadcasters: honor ``self.kernel``,
        else compare the gather-work bound with the threshold."""
        kernel = self.kernel
        return kernel == "scalar" or (
            kernel == "auto"
            and count * self._max_degree < self.VECTORIZE_MIN_WORK
        )

    def _id_list(self, broadcasters: Sequence[int]) -> Sequence[int]:
        """Validate broadcaster ids one by one; return them as Python ints."""
        if isinstance(broadcasters, np.ndarray):
            broadcasters = broadcasters.tolist()
        n = self.network.n
        prev = -1
        numpy_ints = False
        for b in broadcasters:
            if type(b) is not int:
                if not isinstance(b, np.integer):
                    raise SimulationError(
                        f"broadcast by invalid node {b!r}: ids must be ints"
                    )
                numpy_ints = True
            if b <= prev:
                if b < 0:
                    raise SimulationError(
                        f"broadcast by invalid node {b!r} (n={n})"
                    )
                raise SimulationError(
                    f"broadcast by node {b!r} after node {prev!r}: ids must "
                    "be strictly ascending, without duplicates"
                )
            prev = b
        if prev >= n:
            raise SimulationError(f"broadcast by invalid node {prev!r} (n={n})")
        if numpy_ints:
            return [int(b) for b in broadcasters]
        return broadcasters

    def _id_array(self, broadcasters: Sequence[int]) -> np.ndarray:
        """Validate broadcaster ids in bulk; return them as an int64 array."""
        if not len(broadcasters):
            return np.zeros(0, dtype=np.int64)
        bs = np.asarray(broadcasters)
        if (
            bs.dtype.kind not in "iu"
            or bs.ndim != 1
            or bs[0] < 0
            or bs[-1] >= self.network.n
            or np.count_nonzero(bs[1:] <= bs[:-1])
        ):
            # the per-id check names the offending id
            self._id_list(list(broadcasters))
            raise SimulationError(f"invalid broadcaster ids {broadcasters!r}")
        return bs.astype(np.int64, copy=False)

    def _run_round(self, broadcasters, resolver) -> RoundResult:
        """Shared prologue/epilogue around a kernel: count, resolve, advance.

        ``broadcasters`` are already validated: a list for the scalar
        kernel, an int64 array for the vectorized one.
        """
        result = RoundResult(self.round_index)
        counters = self.counters
        metrics_on = _METRICS.enabled
        # receiver faults are folded into result.noise_receivers together
        # with sender-silenced listeners; the exact per-round split only
        # exists as a counter delta
        faults_before = counters.receiver_faults if metrics_on else 0
        count = len(broadcasters)
        counters.rounds += 1
        counters.broadcasts += count
        if count:
            resolver(broadcasters, result)
        self.round_index += 1
        timeline = self.timeline
        if timeline.enabled:
            timeline.on_round(result.round_index, counters, result.receivers)
        if metrics_on:
            _M_ROUNDS.inc()
            if count:
                _M_BROADCASTS.inc(count)
                if result.receivers:
                    _M_DELIVERIES.inc(len(result.receivers))
                if result.collision_receivers:
                    _M_COLLISIONS.inc(len(result.collision_receivers))
                if result.faulty_senders:
                    _M_SENDER_FAULTS.inc(len(result.faulty_senders))
                receiver_faults = counters.receiver_faults - faults_before
                if receiver_faults:
                    _M_RECEIVER_FAULTS.inc(receiver_faults)
        return result

    def _gather(
        self, bs: np.ndarray, padded: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """The (heard, senders) pairs of broadcasters ``bs`` (ascending).

        Without edge dynamics on a bounded-degree network, and unless
        ``padded`` is off, this is one gather from the padded neighbor
        table: ``heard`` is a ``(len(bs), max_degree)`` block whose
        padding entries are the sink slot ``n``, and ``senders``
        broadcasts over its rows. Otherwise it is the flat CSR gather,
        in the slot order the adversary's ``edge_alive`` mask refers to.
        """
        network = self.network
        adversary = self.adversary
        if padded and not adversary.has_edge_dynamics:
            table = network.padded_neighbors()
            if table is not None:
                return table[bs], bs[:, None]
        flat, lens = network.csr_slots(bs)
        heard = network.indices[flat]
        senders = np.repeat(bs, lens)
        if adversary.has_edge_dynamics:
            # hand over the flat slots so the adversary need not rebuild them
            alive = adversary.edge_alive(bs, flat)
            if alive is not None:
                heard = heard[alive]
                senders = senders[alive]
        return heard, senders

    def _resolve_vectorized(self, bs: np.ndarray, result: RoundResult) -> None:
        """Array kernel over the network's adjacency.

        Adversary hooks fire in the fixed order ``begin_round`` ->
        ``sender_mask`` -> ``edge_alive`` -> ``receiver_mask`` — the same
        order, with the same ascending-id inputs, as the scalar kernel,
        so any adversary that draws randomness only inside its hooks is
        kernel-independent.
        """
        n = self.network.n
        counters = self.counters
        adversary = self.adversary

        if adversary.needs_begin_round:
            adversary.begin_round(self.round_index, bs)
        smask = adversary.sender_mask(bs)
        if smask is not None and smask.any():
            faulty = bs[smask]
            counters.sender_faults += int(faulty.size)
            result.faulty_senders = faulty.tolist()
        else:
            faulty = None

        heard, senders = self._gather(bs)
        # drop the padding sink; a fresh array, so also this round's scratch
        hear_count = np.bincount(heard.ravel(), minlength=n + 1)[:n]
        hear_count[bs] = 0  # a broadcasting node cannot receive

        collided = (hear_count > 1).nonzero()[0]
        if collided.size:
            counters.collisions += int(collided.size)
            result.collision_receivers = collided.tolist()
        unique = (hear_count == 1).nonzero()[0]
        sender_of = self._sender_of
        sender_of[heard] = senders  # only read where hear_count == 1
        unique_senders = sender_of[unique]

        if faulty is not None:
            # flag the faulty broadcasters in the scratch, zero there
            hear_count[faulty] = -1
            silenced = hear_count[unique_senders] < 0
            result.noise_receivers = unique[silenced].tolist()
            keep = ~silenced
            unique = unique[keep]
            unique_senders = unique_senders[keep]

        rmask = adversary.receiver_mask(unique, unique_senders)
        if rmask is not None:
            hits = int(np.count_nonzero(rmask))
            if hits:
                counters.receiver_faults += hits
                result.noise_receivers.extend(unique[rmask].tolist())
                keep = ~rmask
                unique = unique[keep]
                unique_senders = unique_senders[keep]

        counters.deliveries += int(unique.size)
        result.receivers = unique.tolist()
        result.senders = unique_senders.tolist()

    def _resolve_scalar(self, broadcasters: list[int], result: RoundResult) -> None:
        """Per-node reference kernel.

        Calls the adversary hooks at the same points, in the same order,
        with the same ascending-id values as the vectorized kernel (see
        :meth:`_resolve_vectorized`), so both kernels consume one RNG
        stream and agree reception for reception.
        """
        counters = self.counters
        adversary = self.adversary

        if adversary.needs_begin_round:
            adversary.begin_round(
                self.round_index, np.asarray(broadcasters, dtype=np.int64)
            )

        faulty: set[int] = set()
        smask = adversary.sender_mask(broadcasters)
        if smask is not None:
            faulty = {b for b, hit in zip(broadcasters, smask) if hit}
            counters.sender_faults += len(faulty)
            result.faulty_senders.extend(sorted(faulty))

        hear_count = self._hear_count
        hear_from = self._hear_from
        touched = self._touched
        neighbors = self.network.neighbors
        alive = (
            adversary.edge_alive(np.asarray(broadcasters, dtype=np.int64))
            if adversary.has_edge_dynamics
            else None
        )
        if alive is None:
            for b in broadcasters:
                for v in neighbors[b]:
                    if hear_count[v] == 0:
                        touched.append(v)
                    hear_count[v] += 1
                    hear_from[v] = b
        else:
            # slots walk each broadcaster's CSR slice in ascending-b
            # order — the exact flat order the vectorized gather uses
            slot = 0
            for b in broadcasters:
                for v in neighbors[b]:
                    if alive[slot]:
                        if hear_count[v] == 0:
                            touched.append(v)
                        hear_count[v] += 1
                        hear_from[v] = b
                    slot += 1

        # classify listeners in ascending id order; receiver corruption
        # coins are drawn in one bulk call over the eligible (unique,
        # non-silenced) receivers so the stream matches the vectorized
        # kernel
        touched.sort()
        broadcasting = set(broadcasters)
        eligible: list[int] = []
        eligible_senders: list[int] = []
        for v in touched:
            count = hear_count[v]
            hear_count[v] = 0  # reset scratch as we go
            if v in broadcasting:
                continue  # a broadcasting node cannot receive
            if count >= 2:
                counters.collisions += 1
                result.collision_receivers.append(v)
                continue
            if hear_from[v] in faulty:
                result.noise_receivers.append(v)
                continue
            eligible.append(v)
            eligible_senders.append(hear_from[v])
        touched.clear()

        rmask = adversary.receiver_mask(eligible, eligible_senders)
        if rmask is not None:
            receivers = result.receivers
            senders = result.senders
            for v, sender, hit in zip(eligible, eligible_senders, rmask):
                if hit:
                    result.noise_receivers.append(v)
                else:
                    receivers.append(v)
                    senders.append(sender)
            counters.receiver_faults += len(eligible) - len(receivers)
        else:
            result.receivers = eligible
            result.senders = eligible_senders
        counters.deliveries += len(result.receivers)


class Simulator:
    """Drives a node population over a :class:`Channel`.

    Parameters
    ----------
    network:
        Topology.
    population:
        A :class:`~repro.core.population.Population` (one call per round
        advances every node), or one :class:`NodeProtocol` per node in
        internal index order, which is wrapped in the per-node
        :class:`~repro.core.population.ProtocolPopulation` adapter.
    faults:
        Fault configuration.
    rng:
        Randomness for the channel (fault sampling). Protocols hold their
        own sources so that channel noise and algorithmic randomness are
        independent streams.
    adversary:
        Optional channel corruption strategy (see :class:`Channel`);
        mutually exclusive with a non-faultless ``faults``.
    channel:
        Optional :class:`~repro.mac.config.MacConfig`: run on the
        contention MAC channel (:class:`~repro.mac.channel.ContentionChannel`)
        instead of the default collision channel. ``None`` (default)
        keeps the paper's channel, bit-for-bit.
    """

    def __init__(
        self,
        network: RadioNetwork,
        population: "Population | Sequence[NodeProtocol]",
        faults: FaultConfig = FaultConfig.faultless(),
        rng: "int | RandomSource | None" = None,
        kernel: str = "auto",
        adversary: "Adversary | AdversaryConfig | None" = None,
        channel: "MacConfig | None" = None,
    ) -> None:
        if not isinstance(population, Population):
            population = ProtocolPopulation(population)
        if population.n != network.n:
            raise SimulationError(
                f"got {population.n} protocols for {network.n} nodes"
            )
        self.network = network
        self.population = population
        if channel is None:
            self.channel = Channel(
                network, faults, rng, kernel=kernel, adversary=adversary
            )
        else:
            # deferred import: repro.mac.channel subclasses Channel, so a
            # module-level import here would be circular
            from repro.mac.channel import ContentionChannel

            self.channel = ContentionChannel(
                network,
                faults,
                rng,
                kernel=kernel,
                adversary=adversary,
                config=channel,
            )
        # an armed timeline capture (repro.timeline.capture) binds its
        # flight recorder to the first simulator built inside the context
        maybe_bind_simulator(self)

    @property
    def counters(self) -> ChannelCounters:
        return self.channel.counters

    @property
    def round_index(self) -> int:
        return self.channel.round_index

    def step(self) -> RoundResult:
        """Run one round: collect broadcasters, transmit, deliver."""
        population = self.population
        result = self.channel.transmit(
            population.broadcasters(self.channel.round_index)
        )
        if result.receivers:
            population.deliver(result.round_index, result.receivers, result.senders)
        return result

    def run(
        self,
        max_rounds: int,
        stop: Optional[Callable[["Simulator"], bool]] = None,
    ) -> int:
        """Run until ``stop(self)`` is True or ``max_rounds`` elapse.

        Returns the number of rounds executed in this call. The default
        stop predicate is "the population reports all_done()".
        """
        if max_rounds < 0:
            raise ValueError(f"max_rounds must be >= 0, got {max_rounds}")
        if stop is None:
            all_done = self.population.all_done
            stop = lambda sim: all_done()
        executed = 0
        while executed < max_rounds:
            if stop(self):
                break
            self.step()
            executed += 1
        return executed

    def all_done(self) -> bool:
        """True iff every node reports completion."""
        return self.population.all_done()

    def done_count(self) -> int:
        """Number of nodes reporting completion."""
        return self.population.done_count()
