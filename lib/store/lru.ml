(* A doubly-linked recency list threaded through an intrusive chained
   hash table: each node is at once a list cell (head = most recently
   used, tail = eviction victim) and a bucket cell. Links are [node]
   values, with the constant constructor [Nil] for "none", so relinking
   a node allocates nothing, and a lookup hashes with the key's own
   function. *)

module type KEY = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end

module Make (K : KEY) = struct
  type key = K.t

  type 'v node =
    | Nil
    | Node of {
        key : K.t;
        mutable value : 'v;
        mutable node_cost : int;
        mutable prev : 'v node;  (* towards the head *)
        mutable next : 'v node;  (* towards the tail *)
        mutable chain : 'v node;  (* next in the same bucket *)
      }

  type 'v t = {
    mutable buckets : 'v node array;  (* length a power of two *)
    mutable bits : int;  (* log2 (Array.length buckets) *)
    mutable size : int;
    on_evict : K.t -> 'v -> unit;
    budget : int;
    mutable total_cost : int;
    mutable head : 'v node;
    mutable tail : 'v node;
    mutable hits : int;
    mutable misses : int;
  }

  let initial_bits = 10

  let create ?(on_evict = fun _ _ -> ()) ~budget () =
    if budget < 0 then invalid_arg "Lru.create";
    {
      buckets = Array.make (1 lsl initial_bits) Nil;
      bits = initial_bits;
      size = 0;
      on_evict;
      budget;
      total_cost = 0;
      head = Nil;
      tail = Nil;
      hits = 0;
      misses = 0;
    }

  let budget t = t.budget
  let cost t = t.total_cost
  let length t = t.size
  let hits t = t.hits
  let misses t = t.misses

  (* Fibonacci hashing: the top [bits] of the low 62 bits of the key's
     hash times 2^62 / phi, so keys that differ only in high or strided
     bits still spread over the buckets. *)
  let index bits k = ((K.hash k * 0x278DDE6E5FD29F05) land max_int) lsr (Sys.int_size - 1 - bits)

  let rec lookup k = function
    | Nil -> Nil
    | Node n as node -> if K.equal n.key k then node else lookup k n.chain

  let find_node t k = lookup k (Array.unsafe_get t.buckets (index t.bits k))

  let grow t =
    let old = t.buckets in
    let bits = t.bits + 1 in
    let buckets = Array.make (1 lsl bits) Nil in
    let rec move = function
      | Nil -> ()
      | Node n as node ->
        let rest = n.chain in
        let i = index bits n.key in
        n.chain <- buckets.(i);
        buckets.(i) <- node;
        move rest
    in
    Array.iter move old;
    t.buckets <- buckets;
    t.bits <- bits

  let bucket_add t = function
    | Nil -> ()
    | Node n as node ->
      if t.size >= 2 lsl t.bits then grow t;
      let i = index t.bits n.key in
      n.chain <- t.buckets.(i);
      t.buckets.(i) <- node;
      t.size <- t.size + 1

  let bucket_remove t = function
    | Nil -> ()
    | Node n as node ->
      let i = index t.bits n.key in
      let rec unchain prev = function
        | Nil -> ()
        | Node c as cur ->
          if cur == node then begin
            (match prev with Nil -> t.buckets.(i) <- c.chain | Node p -> p.chain <- c.chain);
            c.chain <- Nil;
            t.size <- t.size - 1
          end
          else unchain cur c.chain
      in
      unchain Nil t.buckets.(i)

  let set_prev node p = match node with Node n -> n.prev <- p | Nil -> ()
  let set_next node s = match node with Node n -> n.next <- s | Nil -> ()

  let unlink t = function
    | Nil -> ()
    | Node n ->
      (match n.prev with Nil -> t.head <- n.next | p -> set_next p n.next);
      (match n.next with Nil -> t.tail <- n.prev | s -> set_prev s n.prev);
      n.prev <- Nil;
      n.next <- Nil

  let push_front t = function
    | Nil -> ()
    | Node n as node ->
      n.next <- t.head;
      n.prev <- Nil;
      (match t.head with Nil -> t.tail <- node | h -> set_prev h node);
      t.head <- node

  let touch t node =
    if node != t.head then begin
      unlink t node;
      push_front t node
    end

  let mem t k = find_node t k != Nil

  let find t k =
    match find_node t k with
    | Node n as node ->
      t.hits <- t.hits + 1;
      touch t node;
      Some n.value
    | Nil ->
      t.misses <- t.misses + 1;
      None

  let find_exn t k =
    match find_node t k with
    | Node n as node ->
      t.hits <- t.hits + 1;
      touch t node;
      n.value
    | Nil ->
      t.misses <- t.misses + 1;
      raise Not_found

  let peek t k = match find_node t k with Node n -> Some n.value | Nil -> None

  let drop_node t node ~evict =
    match node with
    | Nil -> ()
    | Node n ->
      unlink t node;
      bucket_remove t node;
      t.total_cost <- t.total_cost - n.node_cost;
      if evict then t.on_evict n.key n.value

  (* A single oversized entry is tolerated. *)
  let rec evict_until_fits t =
    if t.total_cost > t.budget && t.size > 1 then begin
      drop_node t t.tail ~evict:true;
      evict_until_fits t
    end

  let insert t k v ~cost =
    if cost < 0 then invalid_arg "Lru.insert: negative cost";
    (match find_node t k with
     | Node n as node ->
       t.total_cost <- t.total_cost - n.node_cost + cost;
       n.value <- v;
       n.node_cost <- cost;
       touch t node
     | Nil ->
       let node = Node { key = k; value = v; node_cost = cost; prev = Nil; next = Nil; chain = Nil } in
       bucket_add t node;
       t.total_cost <- t.total_cost + cost;
       push_front t node);
    evict_until_fits t

  let remove t k = drop_node t (find_node t k) ~evict:false

  let clear t =
    t.buckets <- Array.make (1 lsl initial_bits) Nil;
    t.bits <- initial_bits;
    t.size <- 0;
    t.head <- Nil;
    t.tail <- Nil;
    t.total_cost <- 0

  let flush t =
    while t.tail != Nil do
      drop_node t t.tail ~evict:true
    done

  (* Most recently used first. *)
  let iter t f =
    let rec go = function
      | Nil -> ()
      | Node n ->
        let next = n.next in
        f n.key n.value;
        go next
    in
    go t.head
end
