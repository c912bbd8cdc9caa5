(** Guiding-path parallel enumeration over OCaml 5 domains.

    The projection space is split into disjoint prefix cubes —
    {e guiding paths} — each fixing a contiguous run of leading
    projection positions. Each shard is one independent sequential
    enumeration (any engine) in its own solver instance, confined to
    its prefix; shards run on a pool of worker domains fed from a
    shared work queue. Because the shards partition the space, their
    solution sets union losslessly.

    {b Initial partition.} {!run} seeds the queue with the
    [2^split_depth] guiding paths (default {!default_split_depth}).
    {!run_retaining} without an explicit [split_depth] starts instead
    with one {e probe} shard: the whole space, capped at a fixed
    internal number of cubes (128). A probe that completes is the whole
    result — one solver, one shard, and a cover whose cubes pin no
    prefix positions. A probe that overflows keeps its cubes (see
    below) and fans out to the guiding paths. An explicit
    [split_depth] skips the probe and seeds the guiding paths directly.

    {b Dynamic re-splitting.} A shard whose enumeration reaches
    [resplit_threshold] cubes before completing is replaced by its two
    children (prefix extended at the next position), up to
    [max_split_depth]. The shard tree depends only on the problem —
    never on [jobs] or the scheduling — so merged results are
    reproducible across worker counts.

    {b Overflowed work.} {!run} discards what an overflowed shard
    found; its children enumerate it again.
    {!run_retaining} keeps those cubes in the merge under the shard's
    own prefix, and hands each child the kept cubes (of all its split
    ancestors) that meet the child's prefix, for the child to block
    before it enumerates. Retention suits engines that honour blocking
    clauses; the SDS engines do not (the ternary simulator cannot see
    clauses), so they use {!run} and never probe: an overflowed probe
    would be thrown away.

    {b Domains on demand.} The calling domain is worker 0. The
    [jobs - 1] extra domains are spawned only when the queue first
    holds more than one task, so a run that stays one shard spawns
    none.

    {b Global budget.} All shards share the caller's (atomic)
    {!Ps_util.Budget.t}, so a conflict/deadline budget is enforced
    globally: the first shard to exhaust it records the sticky stop
    reason, every in-flight shard observes it at its next poll, and
    queued shards are dropped. The merged run then carries that stop
    reason and is a sound {e under-approximation} (every cube is a
    solution; the set is just not exhaustive).

    {b Deterministic merge.} Shard results are sorted by prefix
    (lexicographic = enumeration order of the partition; a retained
    parent sorts before its children), each shard's cubes are
    re-anchored under its prefix, stats are summed
    ({!Ps_util.Stats.sum}) and extended with ["shards"] (shards that
    completed without splitting), ["shard_resplits"],
    ["shards_dropped"], ["par_jobs"], ["par_domains"] (extra domains
    actually spawned) and ["shard_cubes_max"], and the stop reasons are
    joined with priority budget-stop > [`CubeLimit] > [`Complete]. *)

(** [guiding_paths ~width ~depth] is the ordered list of [2^depth]
    disjoint prefix cubes fixing positions [0..depth-1] (lexicographic:
    position 0 varies slowest). Raises [Invalid_argument] unless
    [0 <= depth <= width]. *)
val guiding_paths : width:int -> depth:int -> Cube.t list

(** The default initial split depth, and the depth an overflowing
    probe fans out to: [min width 4] (16 shards). It does not depend on
    [jobs], so results cannot vary with the pool size. *)
val default_split_depth : int -> int

val default_resplit_threshold : int

(** One sequential enumeration confined to the guiding path [prefix] (a
    cube fixing a contiguous run of leading positions). It is called
    concurrently from several domains, so it must build a {e fresh}
    solver per call; [budget] is the shared global budget and [trace]
    is already serialized ({!Ps_util.Trace.locked}). Cubes it returns
    may leave the prefix positions don't-care — they are re-anchored
    under the prefix at merge. *)
type shard_runner =
  prefix:Cube.t ->
  limit:int option ->
  budget:Ps_util.Budget.t option ->
  trace:Ps_util.Trace.sink ->
  Run.t

(** [run ~width ~run_shard ()] enumerates the whole projection space of
    [width] positions by sharding it across at most [jobs] worker
    domains ([jobs = 1] runs the shards inline — same shard tree, same
    merged result). The queue starts with the [2^split_depth] guiding
    paths; overflowed shards are discarded and redone by their
    children.

    [limit] caps the {e total} number of merged cubes (the global
    analogue of the sequential engines' cube cap); when it trips, the
    run stops with [`CubeLimit]. Raises [Invalid_argument] when it is
    negative. [trace] receives [Shard_start] / [Shard_done] events per
    shard (a split shard reports ["resplit"]) plus everything the shard
    enumerations emit, and a final [Stopped] event.

    Exceptions raised by [run_shard] cancel the remaining work and are
    re-raised (first one wins) after the pool drains. *)
val run :
  ?jobs:int ->
  ?split_depth:int ->
  ?resplit_threshold:int ->
  ?max_split_depth:int ->
  ?limit:int ->
  ?budget:Ps_util.Budget.t ->
  ?trace:Ps_util.Trace.sink ->
  ?sink:Run.sink ->
  width:int ->
  run_shard:shard_runner ->
  unit ->
  Run.t

(** [run_retaining] is {!run}, except that an overflowed shard's cubes
    stay in the merge (and reach [sink]'s [on_shard] under its prefix),
    and each child is run with [~blocked]: the kept cubes of its split
    ancestors that intersect its prefix. [run_shard ~blocked] must not
    enumerate a model that lies in a cube of [blocked] — typically it
    adds each cube's blocking clause to its fresh solver — so no
    solution is found twice. Without [split_depth] the run starts with
    the probe shard instead of the guiding paths. *)
val run_retaining :
  ?jobs:int ->
  ?split_depth:int ->
  ?resplit_threshold:int ->
  ?max_split_depth:int ->
  ?limit:int ->
  ?budget:Ps_util.Budget.t ->
  ?trace:Ps_util.Trace.sink ->
  ?sink:Run.sink ->
  width:int ->
  run_shard:(blocked:Cube.t list -> shard_runner) ->
  unit ->
  Run.t
