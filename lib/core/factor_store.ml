(* Factor-table storage for the #Val kernel: an in-memory backend and a
   disk-backed backend that serializes tables block-wise to temp files.
   Both keep cells as machine ints, with the rare cell past [max_int] in
   a sparse side table of Nats.  See factor_store.mli. *)

open Incdb_bignum
module Metrics = Incdb_obs.Metrics
module Log = Incdb_obs.Log

type meta = { scope : int array; sizes : int array; cells : int }

let make_meta ~scope ~sizes =
  if Array.length scope <> Array.length sizes then
    invalid_arg "Factor_store.make_meta: scope/sizes length mismatch";
  if Array.exists (fun s -> s < 1) sizes then
    invalid_arg "Factor_store.make_meta: non-positive domain size";
  { scope; sizes; cells = Array.fold_left ( * ) 1 sizes }

(* Registered here (not in val_kernel) so the accounting lives next to
   the IO it measures; the val_kernel prefix keeps the kernel's metric
   namespace in one place for dashboards and the smoke assertions. *)
let spilled_factors = Metrics.counter "val_kernel.spilled_factors"
let spill_bytes = Metrics.counter "val_kernel.spill_bytes"
let spill_read_bytes = Metrics.counter "val_kernel.spill_read_bytes"

let disk_block_cells = 1 lsl 14

(* ------------------------------------------------------------------ *)
(* Cell format                                                         *)
(* ------------------------------------------------------------------ *)

let big = -1

(* Operands are cells: non-negative, or [big].  Two operands in
   [0, 2^31) cannot overflow (the common case, one test), so only a
   wide operand pays for the division.  Zero wins over [big]: the exact
   product is zero whatever the big factor is. *)
let checked_mul a b =
  if (a lor b) lsr 31 = 0 then a * b
  else if a = 0 || b = 0 then 0
  else if a < 0 || b < 0 then big
  else if a > max_int / b then big
  else a * b

(* Two non-negative ints overflow exactly when their sum wraps negative. *)
let checked_add a b =
  if a < 0 || b < 0 then big
  else
    let s = a + b in
    if s < 0 then big else s

(* A run of cells: the int table, with [big] marking each cell whose
   exact value sits in [bigs] as (index, value), ascending by index. *)
type block = { ints : int array; bigs : (int * Nat.t) array }

let empty_block = { ints = [||]; bigs = [||] }

let block_get b i =
  let c = b.ints.(i) in
  if c <> big then Nat.of_int c
  else
    let rec find lo hi =
      let mid = (lo + hi) / 2 in
      let j, n = b.bigs.(mid) in
      if j = i then n else if j < i then find (mid + 1) hi else find lo mid
    in
    find 0 (Array.length b.bigs)

(* Write side of a block: cells appended in index order. *)
type buffer = {
  data : int array;
  mutable big_cells : (int * Nat.t) list;  (* reversed *)
  mutable filled : int;
}

let buffer_create n = { data = Array.make n 0; big_cells = []; filled = 0 }

let buffer_push_int buf ~full v =
  if v < 0 then invalid_arg "Factor_store.append_int: negative cell";
  if buf.filled >= Array.length buf.data then invalid_arg full;
  buf.data.(buf.filled) <- v;
  buf.filled <- buf.filled + 1

let buffer_push buf ~full n =
  match Nat.to_int_opt n with
  | Some v -> buffer_push_int buf ~full v
  | None ->
    if buf.filled >= Array.length buf.data then invalid_arg full;
    buf.big_cells <- (buf.filled, n) :: buf.big_cells;
    buf.data.(buf.filled) <- big;
    buf.filled <- buf.filled + 1

(* The buffered cells as a block (copied, so the buffer can be reused),
   and the buffer emptied. *)
let buffer_take buf =
  let b =
    {
      ints = Array.sub buf.data 0 buf.filled;
      bigs = Array.of_list (List.rev buf.big_cells);
    }
  in
  buf.big_cells <- [];
  buf.filled <- 0;
  b

module type FACTOR_STORE = sig
  val backend : string

  type writer
  type factor

  val create : ?dir:string -> ?on_write:(int -> unit) -> meta -> writer
  val append_int : writer -> int -> unit
  val append : writer -> Nat.t -> unit
  val finish : writer -> factor
  val abort : writer -> unit
  val meta : factor -> meta
  val byte_size : factor -> int
  val get_int : factor -> int -> int
  val get : factor -> int -> Nat.t
  val release : factor -> unit
end

module Memory : FACTOR_STORE = struct
  let backend = "memory"

  type factor = { mmeta : meta; table : block }
  type writer = { wmeta : meta; buf : buffer }

  let full = "Factor_store.Memory.append: table already full"

  let create ?dir:_ ?on_write:_ m = { wmeta = m; buf = buffer_create m.cells }
  let append_int w v = buffer_push_int w.buf ~full v
  let append w n = buffer_push w.buf ~full n

  let finish w =
    if w.buf.filled <> w.wmeta.cells then
      invalid_arg "Factor_store.Memory.finish: table not fully written";
    (* The whole table is one block; no copy of the int table. *)
    {
      mmeta = w.wmeta;
      table =
        { ints = w.buf.data; bigs = Array.of_list (List.rev w.buf.big_cells) };
    }

  let abort _ = ()
  let meta f = f.mmeta
  let byte_size _ = 0
  let get_int f i = f.table.ints.(i)
  let get f i = block_get f.table i
  let release _ = ()
end

module Disk : FACTOR_STORE = struct
  let backend = "disk"

  (* Layout: a sequence of [Marshal]ed {!block}s, one per
     [disk_block_cells] cells (the last may be short) — the int table
     plus that block's few big cells, indexed within the block — with
     the byte offset of every block kept in memory: random access at
     block granularity, sequential IO within a block.  Files live only
     as long as the factor: [release]/[abort] delete them, and both are
     idempotent so the kernel's exception cleanup can fire on top of
     the normal path. *)
  type factor = {
    dmeta : meta;
    path : string;
    offsets : int array;
    bytes : int;
    mutable chan : in_channel option;
    mutable cached_block : int;
    mutable cache : block;
    mutable released : bool;
  }

  type writer = {
    wmeta : meta;
    wpath : string;
    oc : out_channel;
    on_write : int -> unit;
    buf : buffer;
    mutable written : int; (* cells flushed *)
    mutable woffsets : int list; (* reversed block offsets *)
    mutable closed : bool;
  }

  let full = "Factor_store.Disk.append: table already full"

  let create ?dir ?(on_write = fun _ -> ()) m =
    let path =
      Filename.temp_file ?temp_dir:dir "incdb_val_factor_" ".spill"
    in
    let oc = open_out_bin path in
    Log.debugf "factor_store: spilling %d cells over %d slots to %s" m.cells
      (Array.length m.scope) path;
    {
      wmeta = m;
      wpath = path;
      oc;
      on_write;
      buf = buffer_create (min m.cells disk_block_cells);
      written = 0;
      woffsets = [];
      closed = false;
    }

  let flush_block w =
    if w.buf.filled > 0 then begin
      let start = pos_out w.oc in
      w.woffsets <- start :: w.woffsets;
      w.written <- w.written + w.buf.filled;
      Marshal.to_channel w.oc (buffer_take w.buf) [];
      let delta = pos_out w.oc - start in
      Metrics.incr spill_bytes ~by:delta;
      (* The budget hook runs after the accounting: if it raises, the
         bytes were really written and the caller aborts the writer. *)
      w.on_write delta
    end

  let check_open w =
    if w.closed then invalid_arg "Factor_store.Disk.append: writer closed";
    if w.written + w.buf.filled >= w.wmeta.cells then invalid_arg full

  let append_int w v =
    check_open w;
    buffer_push_int w.buf ~full v;
    if w.buf.filled = Array.length w.buf.data then flush_block w

  let append w n =
    check_open w;
    buffer_push w.buf ~full n;
    if w.buf.filled = Array.length w.buf.data then flush_block w

  let abort w =
    if not w.closed then begin
      w.closed <- true;
      close_out_noerr w.oc;
      try Sys.remove w.wpath with Sys_error _ -> ()
    end

  let finish w =
    if w.closed then invalid_arg "Factor_store.Disk.finish: writer closed";
    if w.written + w.buf.filled <> w.wmeta.cells then
      invalid_arg "Factor_store.Disk.finish: table not fully written";
    flush_block w;
    let bytes = pos_out w.oc in
    w.closed <- true;
    close_out w.oc;
    Metrics.incr spilled_factors;
    {
      dmeta = w.wmeta;
      path = w.wpath;
      offsets = Array.of_list (List.rev w.woffsets);
      bytes;
      chan = None;
      cached_block = -1;
      cache = empty_block;
      released = false;
    }

  let meta f = f.dmeta
  let byte_size f = f.bytes

  let load_block f b =
    let ic =
      match f.chan with
      | Some ic -> ic
      | None ->
        let ic = open_in_bin f.path in
        f.chan <- Some ic;
        ic
    in
    seek_in ic f.offsets.(b);
    let cells : block = Marshal.from_channel ic in
    Metrics.incr spill_read_bytes ~by:(pos_in ic - f.offsets.(b));
    f.cached_block <- b;
    f.cache <- cells

  (* The cached block holding cell [i]. *)
  let block_of f i =
    if f.released then invalid_arg "Factor_store.Disk.get: factor released";
    let b = i / disk_block_cells in
    if b <> f.cached_block then load_block f b;
    f.cache

  let get_int f i = (block_of f i).ints.(i mod disk_block_cells)
  let get f i = block_get (block_of f i) (i mod disk_block_cells)

  let release f =
    if not f.released then begin
      f.released <- true;
      (match f.chan with Some ic -> close_in_noerr ic | None -> ());
      f.chan <- None;
      f.cache <- empty_block;
      try Sys.remove f.path with Sys_error _ -> ()
    end
end

(* ------------------------------------------------------------------ *)
(* Kernel-facing dispatch                                              *)
(* ------------------------------------------------------------------ *)

type t = In_memory of Memory.factor | On_disk of Disk.factor
type writer = W_memory of Memory.writer | W_disk of Disk.writer

let create ~spill ?dir ?on_write m =
  if spill then W_disk (Disk.create ?dir ?on_write m)
  else W_memory (Memory.create ?dir ?on_write m)

let append_int w v =
  match w with
  | W_memory w -> Memory.append_int w v
  | W_disk w -> Disk.append_int w v

let append w v =
  match w with
  | W_memory w -> Memory.append w v
  | W_disk w -> Disk.append w v

let finish = function
  | W_memory w -> In_memory (Memory.finish w)
  | W_disk w -> On_disk (Disk.finish w)

let abort = function
  | W_memory w -> Memory.abort w
  | W_disk w -> Disk.abort w

let meta = function
  | In_memory f -> Memory.meta f
  | On_disk f -> Disk.meta f

let get_int f i =
  match f with
  | In_memory f -> Memory.get_int f i
  | On_disk f -> Disk.get_int f i

let get f i =
  match f with
  | In_memory f -> Memory.get f i
  | On_disk f -> Disk.get f i

let byte_size = function
  | In_memory f -> Memory.byte_size f
  | On_disk f -> Disk.byte_size f

let release = function
  | In_memory f -> Memory.release f
  | On_disk f -> Disk.release f

let spilled = function In_memory _ -> false | On_disk _ -> true
