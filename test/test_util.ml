(* Unit and property tests for the s4_util foundation library. *)

module Crc32 = S4_util.Crc32
module Rng = S4_util.Rng
module Bcodec = S4_util.Bcodec
module Simclock = S4_util.Simclock
module Units = S4_util.Units
module Histogram = S4_util.Histogram

let check = Alcotest.check
let qtest = Qseed.qtest

(* --- CRC32 --------------------------------------------------------- *)

let test_crc_known_vectors () =
  (* Standard test vector: CRC-32("123456789") = 0xCBF43926. *)
  check Alcotest.int "123456789" 0xCBF43926 (Crc32.string "123456789");
  check Alcotest.int "empty" 0 (Crc32.string "");
  check Alcotest.int "a" 0xE8B7BE43 (Crc32.string "a")

let test_crc_incremental () =
  let whole = Crc32.string "hello world" in
  let b = Bytes.of_string "hello world" in
  let acc = Crc32.update Crc32.init b ~pos:0 ~len:5 in
  let acc = Crc32.update acc b ~pos:5 ~len:6 in
  check Alcotest.int "incremental = one-shot" whole (Crc32.finish acc)

let test_crc_sub () =
  let b = Bytes.of_string "xxhelloxx" in
  check Alcotest.int "sub range" (Crc32.string "hello") (Crc32.sub b ~pos:2 ~len:5)

let test_crc_bad_range () =
  Alcotest.check_raises "out of range" (Invalid_argument "Crc32.update") (fun () ->
      ignore (Crc32.update Crc32.init (Bytes.create 4) ~pos:2 ~len:4))

let prop_crc_detects_single_bit_flip =
  QCheck.Test.make ~name:"crc32 detects any single-bit flip" ~count:200
    QCheck.(pair (string_of_size Gen.(1 -- 64)) (pair small_nat small_nat))
    (fun (s, (i, bit)) ->
      QCheck.assume (String.length s > 0);
      let i = i mod String.length s and bit = bit mod 8 in
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      Crc32.bytes b <> Crc32.string s)

(* Bit-at-a-time CRC-32 straight from the polynomial: no tables, so it
   shares nothing with the slice-by-8 kernel it checks. *)
let crc_reference b ~pos ~len =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code (Bytes.get b i);
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

let prop_crc_matches_reference =
  QCheck.Test.make ~name:"crc32 slice-by-8 matches the bytewise reference" ~count:200
    QCheck.(
      make
        ~print:(fun (_, pos, len, _) -> Printf.sprintf "pos=%d len=%d" pos len)
        Gen.(quad int (int_bound 15) (int_bound 9000) (pair nat nat)))
    (fun (seed, pos, len, (s1, s2)) ->
      let rng = Random.State.make [| seed |] in
      let b = Bytes.init (pos + len + 7) (fun _ -> Char.chr (Random.State.int rng 256)) in
      let expected = crc_reference b ~pos ~len in
      (* Chained [update] over three pieces split at arbitrary points. *)
      let a = pos + (s1 mod (len + 1)) and c = pos + (s2 mod (len + 1)) in
      let a, c = (min a c, max a c) in
      let acc = Crc32.update Crc32.init b ~pos ~len:(a - pos) in
      let acc = Crc32.update acc b ~pos:a ~len:(c - a) in
      let acc = Crc32.update acc b ~pos:c ~len:(pos + len - c) in
      Crc32.sub b ~pos ~len = expected && Crc32.finish acc = expected)

let test_crc_zeros () =
  (* Against [update] over real zero bytes, from two registers: the
     initial one and one left by some data. *)
  let data = Bytes.of_string "self-securing storage" in
  let mid = Crc32.update Crc32.init data ~pos:0 ~len:(Bytes.length data) in
  let zeros = Bytes.make 4100 '\000' in
  for k = 0 to 4100 do
    List.iter
      (fun acc ->
        let expected = Crc32.update acc zeros ~pos:0 ~len:k in
        if Crc32.zeros acc k <> expected then Alcotest.failf "zeros %08x %d" acc k)
      [ Crc32.init; mid ]
  done;
  List.iter
    (fun k ->
      let expected = Crc32.update mid (Bytes.make k '\000') ~pos:0 ~len:k in
      check Alcotest.int (Printf.sprintf "zeros %d" k) expected (Crc32.zeros mid k))
    [ 65_535; 65_536; 65_537; 1_048_583; 16_777_216 + 4_093 ];
  Alcotest.check_raises "negative" (Invalid_argument "Crc32.zeros") (fun () ->
      ignore (Crc32.zeros Crc32.init (-1)))

(* --- SHA-256 -------------------------------------------------------- *)

module Sha256 = S4_util.Sha256

let sha_hex s = Sha256.to_hex (Sha256.digest_string s)

let test_sha_fips_vectors () =
  (* FIPS 180-4 / NIST CSRC example values. *)
  check Alcotest.string "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (sha_hex "");
  check Alcotest.string "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (sha_hex "abc");
  check Alcotest.string "448-bit message"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (sha_hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check Alcotest.string "a million 'a'"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (sha_hex (String.make 1_000_000 'a'))

let prop_sha_split_invariant =
  QCheck.Test.make ~name:"sha256 digest is independent of feed_sub splits" ~count:200
    QCheck.(pair (string_of_size Gen.(0 -- 300)) (list_of_size Gen.(0 -- 8) small_nat))
    (fun (s, cuts) ->
      let n = String.length s in
      let b = Bytes.of_string s in
      let cuts = List.sort_uniq compare (List.map (fun c -> c mod (n + 1)) cuts) @ [ n ] in
      let ctx = Sha256.init () in
      (* Dirty the context first: a reset one must hash like a fresh one. *)
      Sha256.feed_string ctx "stale state";
      ignore (Sha256.finish ctx);
      Sha256.reset ctx;
      ignore
        (List.fold_left
           (fun from cut ->
             Sha256.feed_sub ctx b from (cut - from);
             cut)
           0 cuts);
      Sha256.finish ctx = Sha256.digest_string s)

(* --- Block framing -------------------------------------------------- *)

let test_frame_layout () =
  let b = Bcodec.frame ~size:64 (fun w -> Bcodec.w_string w "body") in
  check Alcotest.int "block size" 64 (Bytes.length b);
  check Alcotest.string "body in place" "\004body" (Bytes.sub_string b 0 5);
  check Alcotest.string "zero pad" (String.make 55 '\000') (Bytes.sub_string b 5 55);
  check Alcotest.int "crc in the last four bytes" (Crc32.sub b ~pos:0 ~len:60) (Bcodec.get_u32 b 60);
  check Alcotest.bool "checks" true (Bcodec.check_frame b);
  Bytes.set b 3 'X';
  check Alcotest.bool "flipped body fails" false (Bcodec.check_frame b);
  check Alcotest.bool "short block fails" false (Bcodec.check_frame (Bytes.create 3))

let test_frame_overflow () =
  (* 60 body bytes fit a 64-byte block; one more leaves no room for the CRC. *)
  ignore (Bcodec.frame ~size:64 (fun w -> Bcodec.w_raw w (Bytes.make 60 'x')));
  check Alcotest.bool "overflow raises" true
    (try
       ignore (Bcodec.frame ~size:64 (fun w -> Bcodec.w_raw w (Bytes.make 61 'x')));
       false
     with Invalid_argument _ -> true)

(* A block framed the slow way: body, zero pad, then the bitwise
   reference CRC over everything before the last four bytes. *)
let reference_frame ~size body =
  let b = Bytes.make size '\000' in
  Bytes.blit body 0 b 0 (Bytes.length body);
  Bcodec.set_u32 b (size - 4) (crc_reference b ~pos:0 ~len:(size - 4));
  b

(* Random bodies of any length that fits, a third of them ending in a
   run of zero bytes, in blocks from 4 bytes to a little over 8 KB. *)
let gen_framed =
  QCheck.Gen.(
    let* size = oneof [ return 4096; return 512; return 8192; 4 -- 8300 ] in
    let* len = 0 -- (size - 4) in
    let* zero_tail = 0 -- 2 in
    let* seed = int in
    let rng = Random.State.make [| seed |] in
    let body =
      Bytes.init len (fun i ->
          if zero_tail = 0 && i >= len / 2 then '\000' else Char.chr (Random.State.int rng 256))
    in
    return (size, body))

let print_framed (size, body) = Printf.sprintf "size=%d body=%d" size (Bytes.length body)

let prop_frame_matches_reference =
  QCheck.Test.make ~name:"frame equals a full-length CRC frame" ~count:300
    (QCheck.make ~print:print_framed gen_framed)
    (fun (size, body) ->
      let b = Bcodec.frame ~size (fun w -> Bcodec.w_raw w body) in
      Bytes.equal b (reference_frame ~size body) && Bcodec.check_frame b)

let flip b bit =
  let i = bit / 8 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))))

let prop_check_frame_rejects_flips =
  QCheck.Test.make ~name:"check_frame rejects any single-bit flip" ~count:300
    (QCheck.make
       ~print:(fun (f, where, _) -> Printf.sprintf "%s where=%d" (print_framed f) where)
       QCheck.Gen.(triple gen_framed (int_bound 2) nat))
    (fun ((size, body), where, pick) ->
      let b = Bcodec.frame ~size (fun w -> Bcodec.w_raw w body) in
      (* One bit of the body, the pad or the CRC, as drawn. *)
      let len = Bytes.length body and pad = size - 4 - Bytes.length body in
      let bit =
        match where with
        | 0 when len > 0 -> pick mod (8 * len)
        | 1 when pad > 0 -> (8 * len) + (pick mod (8 * pad))
        | _ -> (8 * (size - 4)) + (pick mod 32)
      in
      flip b bit;
      not (Bcodec.check_frame b))

let test_check_frame_every_flip () =
  let b = Bcodec.frame ~size:512 (fun w -> Bcodec.w_string w "body\000\000") in
  for bit = 0 to (8 * 512) - 1 do
    flip b bit;
    if Bcodec.check_frame b then Alcotest.failf "flip of bit %d passed" bit;
    flip b bit
  done;
  check Alcotest.bool "restored" true (Bcodec.check_frame b)

(* --- RNG ----------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  check Alcotest.bool "streams differ" true (!same < 4)

let test_rng_copy_independent () =
  let a = Rng.create ~seed:7 in
  let b = Rng.copy a in
  check Alcotest.int64 "copies agree" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_int_bounds () =
  let r = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check Alcotest.bool "0 <= v < 17" true (v >= 0 && v < 17)
  done

let test_rng_int_in () =
  let r = Rng.create ~seed:4 in
  let seen_min = ref false and seen_max = ref false in
  for _ = 1 to 2000 do
    let v = Rng.int_in r ~min:5 ~max:9 in
    check Alcotest.bool "in range" true (v >= 5 && v <= 9);
    if v = 5 then seen_min := true;
    if v = 9 then seen_max := true
  done;
  check Alcotest.bool "covers endpoints" true (!seen_min && !seen_max)

let test_rng_float_bounds () =
  let r = Rng.create ~seed:5 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    check Alcotest.bool "0 <= v < 2.5" true (v >= 0.0 && v < 2.5)
  done

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:6 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:3.0
  done;
  let mean = !sum /. float_of_int n in
  check Alcotest.bool "mean close to 3" true (abs_float (mean -. 3.0) < 0.2)

let test_rng_shuffle_permutation () =
  let r = Rng.create ~seed:8 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "still a permutation" (Array.init 50 Fun.id) sorted

let test_rng_zipf_skew () =
  let r = Rng.create ~seed:9 in
  let counts = Array.make 100 0 in
  for _ = 1 to 10_000 do
    let v = Rng.zipf r ~n:100 ~theta:0.8 in
    counts.(v) <- counts.(v) + 1
  done;
  check Alcotest.bool "rank 0 beats rank 50" true (counts.(0) > counts.(50))

let test_rng_invalid_args () =
  let r = Rng.create ~seed:1 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int") (fun () -> ignore (Rng.int r 0));
  Alcotest.check_raises "bad range" (Invalid_argument "Rng.int_in") (fun () ->
      ignore (Rng.int_in r ~min:3 ~max:2))

(* --- Bcodec -------------------------------------------------------- *)

let test_bcodec_scalars () =
  let w = Bcodec.writer () in
  Bcodec.w_u8 w 0xAB;
  Bcodec.w_u16 w 0xBEEF;
  Bcodec.w_u32 w 0xDEADBEEF;
  Bcodec.w_i64 w (-1L);
  let r = Bcodec.reader (Bcodec.contents w) in
  check Alcotest.int "u8" 0xAB (Bcodec.r_u8 r);
  check Alcotest.int "u16" 0xBEEF (Bcodec.r_u16 r);
  check Alcotest.int "u32" 0xDEADBEEF (Bcodec.r_u32 r);
  check Alcotest.int64 "i64" (-1L) (Bcodec.r_i64 r);
  check Alcotest.int "consumed" 0 (Bcodec.remaining r)

let test_bcodec_varint_edge () =
  List.iter
    (fun v ->
      let w = Bcodec.writer () in
      Bcodec.w_int w v;
      let r = Bcodec.reader (Bcodec.contents w) in
      check Alcotest.int (Printf.sprintf "varint %d" v) v (Bcodec.r_int r))
    [ 0; 1; 127; 128; 255; 16_383; 16_384; 1 lsl 30; (1 lsl 62) - 1 ]

let test_bcodec_truncation () =
  let w = Bcodec.writer () in
  Bcodec.w_u32 w 42;
  let short = Bytes.sub (Bcodec.contents w) 0 2 in
  let r = Bcodec.reader short in
  check Alcotest.bool "raises Decode_error" true
    (try
       ignore (Bcodec.r_u32 r);
       false
     with Bcodec.Decode_error _ -> true)

let test_bcodec_negative_varint_rejected () =
  let w = Bcodec.writer () in
  Alcotest.check_raises "negative" (Invalid_argument "Bcodec.w_int: negative") (fun () ->
      Bcodec.w_int w (-1))

(* A random program of scalar writes must read back verbatim and
   consume the buffer exactly. *)
let prop_bcodec_program_roundtrip =
  let gen_op =
    QCheck.Gen.(
      oneof
        [
          map (fun n -> `U8 n) (int_bound 0xFF);
          map (fun n -> `U16 n) (int_bound 0xFFFF);
          map (fun n -> `U32 n) (int_bound 0xFFFFFFFF);
          map (fun n -> `I64 (Int64.of_int n)) int;
          oneofl [ `I64 Int64.min_int; `I64 Int64.max_int; `I64 0L; `I64 (-1L) ];
          map (fun n -> `Int (n land max_int)) int;
          map (fun s -> `Str s) (string_size (int_bound 64));
        ])
  in
  let arb =
    QCheck.make
      ~print:(fun ops -> Printf.sprintf "<%d scalar ops>" (List.length ops))
      QCheck.Gen.(list_size (int_bound 50) gen_op)
  in
  QCheck.Test.make ~name:"bcodec random scalar program roundtrip" ~count:300 arb (fun ops ->
      let w = Bcodec.writer () in
      List.iter
        (function
          | `U8 n -> Bcodec.w_u8 w n
          | `U16 n -> Bcodec.w_u16 w n
          | `U32 n -> Bcodec.w_u32 w n
          | `I64 n -> Bcodec.w_i64 w n
          | `Int n -> Bcodec.w_int w n
          | `Str s -> Bcodec.w_string w s)
        ops;
      let r = Bcodec.reader (Bcodec.contents w) in
      let ok =
        List.for_all
          (function
            | `U8 n -> Bcodec.r_u8 r = n
            | `U16 n -> Bcodec.r_u16 r = n
            | `U32 n -> Bcodec.r_u32 r = n
            | `I64 n -> Bcodec.r_i64 r = n
            | `Int n -> Bcodec.r_int r = n
            | `Str s -> Bcodec.r_string r = s)
          ops
      in
      ok && Bcodec.remaining r = 0)

let prop_bcodec_roundtrip =
  QCheck.Test.make ~name:"bcodec bytes/string/varint roundtrip" ~count:200
    QCheck.(triple (string_of_size Gen.(0 -- 200)) small_nat (list small_nat))
    (fun (s, n, ints) ->
      let w = Bcodec.writer () in
      Bcodec.w_string w s;
      Bcodec.w_int w n;
      List.iter (Bcodec.w_int w) ints;
      Bcodec.w_bytes w (Bytes.of_string s);
      let r = Bcodec.reader (Bcodec.contents w) in
      let s' = Bcodec.r_string r in
      let n' = Bcodec.r_int r in
      let ints' = List.map (fun _ -> Bcodec.r_int r) ints in
      let b' = Bcodec.r_bytes r in
      s' = s && n' = n && ints' = ints && Bytes.to_string b' = s)

(* --- Simclock ------------------------------------------------------ *)

let test_clock_advance () =
  let c = Simclock.create () in
  check Alcotest.int64 "starts at 0" 0L (Simclock.now c);
  Simclock.advance c 1500L;
  Simclock.advance_s c 0.5;
  check Alcotest.int64 "1500ns + 0.5s" 500_001_500L (Simclock.now c)

let test_clock_no_backward () =
  let c = Simclock.create () in
  Simclock.advance c 100L;
  Alcotest.check_raises "backward set" (Invalid_argument "Simclock.set: backward") (fun () ->
      Simclock.set c 50L);
  Alcotest.check_raises "negative advance"
    (Invalid_argument "Simclock.advance: negative") (fun () -> Simclock.advance c (-1L))

let test_clock_conversions () =
  check Alcotest.int64 "1ms" 1_000_000L (Simclock.of_ms 1.0);
  check Alcotest.int64 "2us" 2_000L (Simclock.of_us 2.0);
  check (Alcotest.float 1e-9) "roundtrip" 1.5 (Simclock.to_seconds (Simclock.of_seconds 1.5))

(* --- Units --------------------------------------------------------- *)

let test_units_pp () =
  check Alcotest.string "bytes" "512 B" (Format.asprintf "%a" Units.pp_bytes 512);
  check Alcotest.string "kib" "4.0 KiB" (Format.asprintf "%a" Units.pp_bytes 4096);
  check Alcotest.string "gib" "2.00 GiB" (Format.asprintf "%a" Units.pp_bytes (2 * Units.gib))

let test_units_stats () =
  check (Alcotest.float 1e-9) "mean" 2.0 (Units.mean [ 1.0; 2.0; 3.0 ]);
  check (Alcotest.float 1e-9) "stddev" 1.0 (Units.stddev [ 1.0; 2.0; 3.0 ]);
  check (Alcotest.float 1e-9) "percent" 25.0 (Units.percent 1.0 4.0);
  check (Alcotest.float 1e-9) "percent of zero" 0.0 (Units.percent 1.0 0.0)

(* --- Histogram ----------------------------------------------------- *)

let test_histogram_basic () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 1.0; 2.0; 4.0; 8.0 ];
  check Alcotest.int "count" 4 (Histogram.count h);
  check (Alcotest.float 1e-9) "total" 15.0 (Histogram.total h);
  check (Alcotest.float 1e-9) "mean" 3.75 (Histogram.mean h);
  check (Alcotest.float 1e-9) "max" 8.0 (Histogram.max_value h);
  check (Alcotest.float 1e-9) "min" 1.0 (Histogram.min_value h)

let test_histogram_percentile_monotone () =
  let h = Histogram.create () in
  for i = 1 to 1000 do
    Histogram.add h (float_of_int i)
  done;
  let p50 = Histogram.percentile h 50.0 and p99 = Histogram.percentile h 99.0 in
  check Alcotest.bool "p50 <= p99" true (p50 <= p99);
  check Alcotest.bool "p99 within 2x of true value" true (p99 >= 990.0 /. 2.0 && p99 <= 990.0 *. 2.0)

let test_histogram_empty () =
  let h = Histogram.create () in
  check (Alcotest.float 1e-9) "empty percentile" 0.0 (Histogram.percentile h 99.0);
  check (Alcotest.float 1e-9) "empty mean" 0.0 (Histogram.mean h)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.add a 1.0;
  Histogram.add b 5.0;
  let m = Histogram.merge a b in
  check Alcotest.int "merged count" 2 (Histogram.count m);
  check (Alcotest.float 1e-9) "merged total" 6.0 (Histogram.total m)

(* --- LRU (lives in s4_store but is generic) ------------------------ *)

module Lru = S4_store.Lru
module Lru_s = Lru.Make (String)
module Lru_i = Lru.Make (Int)

(* Keys that differ only in their high bits, so every hash lands on a
   few buckets unless the table mixes it. *)
module Lru_strided = Lru.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k lsl 40
end)

let test_lru_basic () =
  let c = Lru_s.create ~budget:3 () in
  Lru_s.insert c "a" 1 ~cost:1;
  Lru_s.insert c "b" 2 ~cost:1;
  Lru_s.insert c "c" 3 ~cost:1;
  check (Alcotest.option Alcotest.int) "find a" (Some 1) (Lru_s.find c "a");
  Lru_s.insert c "d" 4 ~cost:1;
  (* "b" was least recently used ("a" was touched by find). *)
  check (Alcotest.option Alcotest.int) "b evicted" None (Lru_s.peek c "b");
  check (Alcotest.option Alcotest.int) "a kept" (Some 1) (Lru_s.peek c "a")

let test_lru_eviction_callback () =
  let evicted = ref [] in
  let c = Lru_i.create ~on_evict:(fun k v -> evicted := (k, v) :: !evicted) ~budget:2 () in
  Lru_i.insert c 1 "one" ~cost:1;
  Lru_i.insert c 2 "two" ~cost:1;
  Lru_i.insert c 3 "three" ~cost:1;
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string)) "evicted 1" [ (1, "one") ] !evicted

let test_lru_cost_accounting () =
  let c = Lru_s.create ~budget:10 () in
  Lru_s.insert c "x" 0 ~cost:4;
  Lru_s.insert c "y" 0 ~cost:4;
  check Alcotest.int "cost" 8 (Lru_s.cost c);
  Lru_s.insert c "x" 0 ~cost:6;
  (* replacing x with cost 6: total 10, fits *)
  check Alcotest.int "replaced cost" 10 (Lru_s.cost c);
  Lru_s.insert c "z" 0 ~cost:5;
  check Alcotest.bool "evicted to fit" true (Lru_s.cost c <= 10)

let test_lru_oversized_entry_tolerated () =
  let c = Lru_s.create ~budget:4 () in
  Lru_s.insert c "big" 0 ~cost:100;
  check Alcotest.int "still resident" 1 (Lru_s.length c);
  Lru_s.insert c "small" 0 ~cost:1;
  check Alcotest.bool "big evicted for small" true (Lru_s.peek c "big" = None)

let test_lru_remove_and_clear () =
  let evictions = ref 0 in
  let c = Lru_i.create ~on_evict:(fun _ _ -> incr evictions) ~budget:10 () in
  Lru_i.insert c 1 () ~cost:1;
  Lru_i.insert c 2 () ~cost:1;
  Lru_i.remove c 1;
  check Alcotest.int "remove silent" 0 !evictions;
  Lru_i.flush c;
  check Alcotest.int "flush evicts" 1 !evictions;
  check Alcotest.int "empty" 0 (Lru_i.length c)

let test_lru_hits_misses () =
  let c = Lru_i.create ~budget:10 () in
  Lru_i.insert c 1 () ~cost:1;
  ignore (Lru_i.find c 1);
  ignore (Lru_i.find c 2);
  (match Lru_i.find_exn c 3 with
   | () -> Alcotest.fail "find_exn of an absent key"
   | exception Not_found -> ());
  Lru_i.find_exn c 1;
  check Alcotest.int "hits" 2 (Lru_i.hits c);
  check Alcotest.int "misses" 2 (Lru_i.misses c)

let prop_lru_never_exceeds_budget_with_unit_costs =
  QCheck.Test.make ~name:"lru respects budget" ~count:100
    QCheck.(list (pair small_nat bool))
    (fun ops ->
      let c = Lru_i.create ~budget:8 () in
      List.iter
        (fun (k, ins) -> if ins then Lru_i.insert c k () ~cost:1 else ignore (Lru_i.find c k))
        ops;
      Lru_i.cost c <= 8)

(* Past the initial 1,024 buckets the table doubles; every key stays
   reachable, with or without a hash that needs mixing. *)
let test_lru_table_growth () =
  let n = 10_000 in
  let c = Lru_i.create ~budget:max_int () and c' = Lru_strided.create ~budget:max_int () in
  for k = 0 to n - 1 do
    Lru_i.insert c (k * 4096) k ~cost:1;
    Lru_strided.insert c' k k ~cost:1
  done;
  for k = 0 to n - 1 do
    if k mod 2 = 0 then begin
      Lru_i.remove c (k * 4096);
      Lru_strided.remove c' k
    end
  done;
  check Alcotest.int "length" (n / 2) (Lru_i.length c);
  check Alcotest.int "strided length" (n / 2) (Lru_strided.length c');
  for k = 0 to n - 1 do
    let expect = if k mod 2 = 0 then None else Some k in
    if Lru_i.peek c (k * 4096) <> expect || Lru_strided.peek c' k <> expect then
      Alcotest.failf "key %d" k
  done

(* Model-based check: the cache must behave exactly like a naive
   MRU-first assoc list with the same eviction rule (evict the tail
   while over budget, but never down to zero entries). Recency order
   is observed through the eviction callback sequence, and through
   [iter], which walks most recent first. Costs reach past the whole
   budget, and [clear] and [flush] empty the cache without and with
   callbacks. The strided-hash instance runs the same operations, so
   bucket collisions cannot change a result. *)
let prop_lru_matches_model =
  let budget = 6 in
  let arb =
    QCheck.(
      list
        (triple
           (int_bound 19) (* 0-5 insert, 6-9 find, 10-11 find_exn, 12-13 peek, 14-16 remove, 17 clear, 18 flush, 19 mem *)
           (int_bound 40) (* key *)
           (int_bound 8) (* cost, inserts only; > budget is oversized *)))
  in
  QCheck.Test.make ~name:"lru matches assoc-list model" ~count:300 arb (fun ops ->
      let evicted = ref [] and evicted_strided = ref [] in
      let c = Lru_i.create ~on_evict:(fun k v -> evicted := (k, v) :: !evicted) ~budget () in
      let c' =
        Lru_strided.create ~on_evict:(fun k v -> evicted_strided := (k, v) :: !evicted_strided) ~budget ()
      in
      let model = ref [] in
      (* MRU-first: (key, (value, cost)) *)
      let m_evicted = ref [] in
      let m_hits = ref 0 and m_misses = ref 0 in
      let m_cost () = List.fold_left (fun a (_, (_, c)) -> a + c) 0 !model in
      let m_evict_tail () =
        let rec split = function
          | [ last ] -> ([], last)
          | x :: rest ->
            let pre, l = split rest in
            (x :: pre, l)
          | [] -> assert false
        in
        let pre, (k, (v, _)) = split !model in
        model := pre;
        m_evicted := (k, v) :: !m_evicted
      in
      let m_evict () =
        while m_cost () > budget && List.length !model > 1 do
          m_evict_tail ()
        done
      in
      let ok = ref true in
      let agree a b = if a <> b then ok := false in
      let vcounter = ref 0 in
      List.iter
        (fun (op, k, cost) ->
          if op <= 5 then begin
            incr vcounter;
            let v = !vcounter in
            Lru_i.insert c k v ~cost;
            Lru_strided.insert c' k v ~cost;
            model := (k, (v, cost)) :: List.remove_assoc k !model;
            m_evict ()
          end
          else if op <= 11 then begin
            let r, r' =
              if op <= 9 then (Lru_i.find c k, Lru_strided.find c' k)
              else
                ( (try Some (Lru_i.find_exn c k) with Not_found -> None),
                  try Some (Lru_strided.find_exn c' k) with Not_found -> None )
            in
            agree r r';
            match List.assoc_opt k !model with
            | Some (v, cost) ->
              incr m_hits;
              model := (k, (v, cost)) :: List.remove_assoc k !model;
              agree r (Some v)
            | None ->
              incr m_misses;
              agree r None
          end
          else if op <= 13 then begin
            let expect = Option.map fst (List.assoc_opt k !model) in
            agree (Lru_i.peek c k) expect;
            agree (Lru_strided.peek c' k) expect
          end
          else if op <= 16 then begin
            Lru_i.remove c k;
            Lru_strided.remove c' k;
            model := List.remove_assoc k !model
          end
          else if op = 17 then begin
            Lru_i.clear c;
            Lru_strided.clear c';
            model := []
          end
          else if op = 18 then begin
            Lru_i.flush c;
            Lru_strided.flush c';
            while !model <> [] do
              m_evict_tail ()
            done
          end
          else begin
            agree (Lru_i.mem c k) (List.mem_assoc k !model);
            agree (Lru_strided.mem c' k) (List.mem_assoc k !model)
          end)
        ops;
      let order iter cache =
        let l = ref [] in
        iter cache (fun k v -> l := (k, v) :: !l);
        List.rev !l
      in
      let m_order = List.map (fun (k, (v, _)) -> (k, v)) !model in
      !ok
      && Lru_i.cost c = m_cost ()
      && Lru_strided.cost c' = m_cost ()
      && Lru_i.length c = List.length !model
      && Lru_strided.length c' = List.length !model
      && Lru_i.hits c = !m_hits
      && Lru_i.misses c = !m_misses
      && Lru_strided.hits c' = !m_hits
      && Lru_strided.misses c' = !m_misses
      && !evicted = !m_evicted
      && !evicted_strided = !m_evicted
      && order Lru_i.iter c = m_order
      && order Lru_strided.iter c' = m_order)

let () =
  Alcotest.run "s4_util"
    [
      ( "crc32",
        [
          Alcotest.test_case "known vectors" `Quick test_crc_known_vectors;
          Alcotest.test_case "incremental" `Quick test_crc_incremental;
          Alcotest.test_case "sub range" `Quick test_crc_sub;
          Alcotest.test_case "bad range" `Quick test_crc_bad_range;
          qtest prop_crc_detects_single_bit_flip;
          qtest prop_crc_matches_reference;
          Alcotest.test_case "zeros" `Quick test_crc_zeros;
        ] );
      ( "sha256",
        [
          Alcotest.test_case "FIPS 180-4 vectors" `Quick test_sha_fips_vectors;
          qtest prop_sha_split_invariant;
        ] );
      ( "frame",
        [
          Alcotest.test_case "layout" `Quick test_frame_layout;
          Alcotest.test_case "overflow" `Quick test_frame_overflow;
          qtest prop_frame_matches_reference;
          qtest prop_check_frame_rejects_flips;
          Alcotest.test_case "every flip of a block" `Quick test_check_frame_every_flip;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "copy" `Quick test_rng_copy_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in inclusive" `Quick test_rng_int_in;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "zipf skew" `Quick test_rng_zipf_skew;
          Alcotest.test_case "invalid args" `Quick test_rng_invalid_args;
        ] );
      ( "bcodec",
        [
          Alcotest.test_case "scalars" `Quick test_bcodec_scalars;
          Alcotest.test_case "varint edges" `Quick test_bcodec_varint_edge;
          Alcotest.test_case "truncation" `Quick test_bcodec_truncation;
          Alcotest.test_case "negative varint" `Quick test_bcodec_negative_varint_rejected;
          qtest prop_bcodec_roundtrip;
          qtest prop_bcodec_program_roundtrip;
        ] );
      ( "simclock",
        [
          Alcotest.test_case "advance" `Quick test_clock_advance;
          Alcotest.test_case "no backward" `Quick test_clock_no_backward;
          Alcotest.test_case "conversions" `Quick test_clock_conversions;
        ] );
      ( "units",
        [
          Alcotest.test_case "pp" `Quick test_units_pp;
          Alcotest.test_case "stats" `Quick test_units_stats;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "basic" `Quick test_histogram_basic;
          Alcotest.test_case "percentile monotone" `Quick test_histogram_percentile_monotone;
          Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
        ] );
      ( "lru",
        [
          Alcotest.test_case "basic" `Quick test_lru_basic;
          Alcotest.test_case "eviction callback" `Quick test_lru_eviction_callback;
          Alcotest.test_case "cost accounting" `Quick test_lru_cost_accounting;
          Alcotest.test_case "oversized entry" `Quick test_lru_oversized_entry_tolerated;
          Alcotest.test_case "remove and clear" `Quick test_lru_remove_and_clear;
          Alcotest.test_case "hits and misses" `Quick test_lru_hits_misses;
          Alcotest.test_case "table growth" `Quick test_lru_table_growth;
          qtest prop_lru_never_exceeds_budget_with_unit_costs;
          qtest prop_lru_matches_model;
        ] );
    ]
