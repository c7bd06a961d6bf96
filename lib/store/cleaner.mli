(** History-pool cleaner (policy).

    Following the paper's design, the cleaner is object-aware rather
    than purely segment-oriented: it first *expires* journal entries
    (and the blocks they superseded) that have aged beyond the
    detection window — only aging may reclaim history — then reclaims
    fully dead segments for free, and finally *compacts* fragmented
    closed segments by moving their remaining live blocks to the log
    head (the extra reads this needs are the paper's explanation for
    S4 cleaning being costlier than stock LFS cleaning).

    The cleaner can run [charged] (its I/O competes with foreground
    work — the dashed line of Figure 5) or uncharged (state changes
    only — the "no cleaning cost" baseline). *)

type t

type report = {
  expired_entries : int;
  expired_blocks : int;
  expired_objects : int;
  segments_reclaimed : int;
  segments_compacted : int;
  blocks_moved : int;
  free_segments_before : int;
  free_segments_after : int;
}

val create :
  ?window:int64 ->
  ?live_threshold:float ->
  ?max_segments_per_run:int ->
  Obj_store.t ->
  t
(** Defaults: window 7 simulated days, compact closed segments whose
    live ratio is below [live_threshold] (0.75), at most
    [max_segments_per_run] (8) compactions per {!run}. *)

val window : t -> int64
val set_window : t -> int64 -> unit
(** The guaranteed detection window in simulated nanoseconds
    (administrative [SetWindow]). *)

type mode =
  | Charged  (** cleaner I/O fully competes with foreground (default) *)
  | Free  (** state changes only, no simulated cost — baselines *)
  | Overlapped
      (** cleaner I/O consumes idle disk time first; only the excess is
          charged (a background cleaner thread on a real system). The
          idle credit is supplied per run via [?idle_ns]. *)

val set_mode : t -> mode -> unit
val mode : t -> mode

val set_charged : t -> bool -> unit
(** [set_charged t false] = [set_mode t Free]; convenience. *)

val set_on_audit_move : t -> (Obj_store.addr -> Obj_store.addr -> unit) -> unit
(** Callback invoked when compaction relocates a journal block holding
    an audit tail. *)

val cutoff : t -> int64
(** [now - window], clamped at 0: versions strictly older are
    reclaimable. *)

val run : ?idle_ns:int64 -> t -> report
(** One full pass: expire, reclaim, compact up to the per-run budget,
    then sync. In [Overlapped] mode, [idle_ns] is the foreground idle
    disk time available to absorb cleaning I/O. *)

val run_if_needed : t -> min_free_segments:int -> report option
(** {!run} only when free space is low. *)

val totals : t -> report
(** Cumulative counters across all runs. *)

type differencing = {
  history_blocks : int;
  history_bytes : int;
  delta_bytes : int;  (** after cross-version differencing *)
  delta_compressed_bytes : int;  (** differencing + LZ compression *)
}

val measure_differencing : t -> differencing
(** Size the history pool as-is, after xdelta-style differencing of
    each superseded block against its successor version, and after
    additionally LZ-compressing the deltas — the Section 5.2
    technology. Requires a store that keeps data contents; with
    [keep_data:false] the result degenerates (all-zero blocks). *)
