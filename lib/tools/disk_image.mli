(** Host-file persistence for simulated disks.

    Lets tools (notably [bin/s4cli] and [bin/s4d]) keep a whole
    self-securing drive — geometry, simulated clock, and sparse sector
    contents — in an ordinary file across process runs, exercising the
    crash-recovery path ({!S4.Drive.attach}) on every load.

    Two on-disk formats exist:
    - {e serialized images} ("S4IMG2\n"): a one-shot dump written by
      {!save}, with a trailing CRC-32; every load bounds-checks the
      sector records against the declared geometry. The CRC-less
      "S4IMG1\n" format is no longer read: {!kind} reports it as
      [Unknown].
    - {e file-backed stores} ({!S4_disk.File_disk}, "S4FDSK1\n"):
      sectors live at fixed offsets and are pwritten as the drive runs,
      so acknowledged writes survive [kill -9].

    {!kind}, {!load_any} and {!save_any} dispatch on the format so the
    daemon and CLI work with either transparently. *)

val save : string -> S4_util.Simclock.t -> S4_disk.Sim_disk.t -> unit
(** Atomically replace [path] with an image: write to [path ^ ".tmp"],
    fsync, rename over [path], and fsync the directory. A crash at any
    point leaves either the old or the new image, never a torn one.
    @raise Sys_error on I/O problems (the temp file is removed). *)

val load : string -> S4_util.Simclock.t * S4_disk.Sim_disk.t
(** Load a serialized image, verifying its checksum and
    bounds-checking the header and every sector record.
    @raise Failure ["<path>: not an S4 image"] on a foreign file,
    ["<path>: corrupt image (...)"] on a damaged one;
    @raise Sys_error on I/O problems. *)

type kind = Image | File_store | Unknown

val kind : string -> kind
(** Probe the first bytes of [path]; [Unknown] for unreadable or
    foreign files. *)

val load_any : ?dsync:bool -> string -> S4_util.Simclock.t * S4_disk.Sim_disk.t
(** Open either format: a file-backed store yields a disk whose writes
    persist as they happen ([dsync] selects [O_DSYNC] mode); a
    serialized image is loaded into memory as with {!load}.
    @raise Failure as {!load}, or "...: not an S4 image or file-backed
    store". *)

val save_any : string -> S4_util.Simclock.t -> S4_disk.Sim_disk.t -> unit
(** Persist the drive to [path]: a barrier ({!S4_disk.File_disk.sync})
    for file-backed disks, an atomic {!save} otherwise. *)
