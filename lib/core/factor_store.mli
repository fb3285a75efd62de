(** Pluggable storage for the [#Val] kernel's factor tables.

    A factor is a table of non-negative counts over the mixed-radix
    cells of a sorted slot scope ([scope.(0)] is the fastest digit,
    matching {!Val_kernel}'s historical layout).  The kernel's
    tree-decomposition DP produces them as upward separator messages;
    most fit comfortably in RAM, but a wide separator can exceed the
    in-memory cell cap — the dpdb lesson is that such a table should
    become a {e streaming} problem, not a hard failure.

    {b Cell format.}  Cells are machine ints: almost every count fits in
    62 bits.  The rare cell past [max_int] is stored as {!big} in the int
    table, with its exact {!Incdb_bignum.Nat} value in a sparse side
    table of (index, value) pairs.  {!get_int} reads the int (or
    {!big}), {!get} always reads the exact value; {!append} accepts any
    [Nat] and stores it as an int whenever it fits, so callers that
    think in [Nat] (the [#Comp] kernel's spilled frontier) never see the
    format.  {!checked_mul} and {!checked_add} are the overflow-checked
    cell arithmetic: they answer {!big} instead of wrapping, which is
    the caller's cue to redo that one cell in [Nat].

    {!FACTOR_STORE} is the contract both backends implement:

    - {!Memory} — one int array plus its side table;
    - {!Disk} — tables serialized to a temp file in fixed-size blocks of
      cells, each block a [Marshal]ed int array plus the block's big
      cells (so the kernel's block-sequential writes and block-local
      reads touch one block at a time), with byte/IO accounting through
      the [val_kernel.spilled_factors], [val_kernel.spill_bytes] and
      [val_kernel.spill_read_bytes] counters and temp-file cleanup
      guaranteed by {!FACTOR_STORE.abort}/{!FACTOR_STORE.release} (both
      idempotent, both safe mid-write — the kernel runs its DP under a
      [Fun.protect] that releases every live factor on any exception).

    {!t} is the kernel-facing sum of the two, so a single DP can mix
    in-memory and spilled messages factor by factor. *)

open Incdb_bignum

(** Table shape: sorted slot scope, per-slot (reduced) domain sizes,
    and the cell count [Array.fold_left ( * ) 1 sizes]. *)
type meta = { scope : int array; sizes : int array; cells : int }

(** [make_meta ~scope ~sizes] pairs the arrays with their cell count.
    @raise Invalid_argument on mismatched lengths or a non-positive
    size. *)
val make_meta : scope:int array -> sizes:int array -> meta

(** {2 Cell arithmetic} *)

(** [-1]: the int-table mark of a cell whose value exceeds [max_int]
    (read it with {!get}), and the "does not fit" answer of the checked
    operations below. *)
val big : int

(** [checked_mul a b] on cells (non-negative ints or {!big}) is the
    exact product when it fits in an int, [0] when either operand is
    [0] (even against {!big}), and {!big} otherwise. *)
val checked_mul : int -> int -> int

(** [checked_add a b] is the exact sum when it fits in an int, {!big}
    when it does not or when either operand is {!big}. *)
val checked_add : int -> int -> int

module type FACTOR_STORE = sig
  (** Backend name, for logs and trace args. *)
  val backend : string

  type writer
  type factor

  (** [create ?dir ?on_write m] opens a writer for a table of shape
      [m].  [dir] is where the {!Disk} backend places its temp file
      (default: the system temp directory); {!Memory} ignores it.
      [on_write] is invoked with the byte delta after every flushed
      block — the kernel uses it to enforce its spill budget, and an
      exception it raises propagates out of {!append}/{!finish} with
      the writer still abortable. *)
  val create : ?dir:string -> ?on_write:(int -> unit) -> meta -> writer

  (** Append a cell that fits in an int.  Cells must be appended (by
      either function) in index order, exactly [meta.cells] of them
      before {!finish}.
      @raise Invalid_argument on a negative value. *)
  val append_int : writer -> int -> unit

  (** Append any count; it is stored as an int whenever it fits. *)
  val append : writer -> Nat.t -> unit

  (** @raise Invalid_argument if fewer than [meta.cells] cells were
      appended. *)
  val finish : writer -> factor

  (** Drop a writer mid-stream, deleting any temp file.  Idempotent;
      also safe after {!finish} (then a no-op). *)
  val abort : writer -> unit

  val meta : factor -> meta

  (** Bytes the factor occupies on disk ([0] for {!Memory}). *)
  val byte_size : factor -> int

  (** Random access by cell index: the cell's value, or {!big} when it
      does not fit in an int.  The {!Disk} backend caches one decoded
      block; the kernel's enumeration order keeps consecutive reads
      block-local per child factor. *)
  val get_int : factor -> int -> int

  (** The cell's exact value, whatever its size. *)
  val get : factor -> int -> Nat.t

  (** Free the table (delete the temp file).  Idempotent.  [get] after
      [release] raises [Invalid_argument]. *)
  val release : factor -> unit
end

module Memory : FACTOR_STORE
module Disk : FACTOR_STORE

(** Cells per serialized block of the {!Disk} backend (also the size of
    its single-block read cache). *)
val disk_block_cells : int

(** {2 Kernel-facing dispatch} *)

type t = In_memory of Memory.factor | On_disk of Disk.factor
type writer = W_memory of Memory.writer | W_disk of Disk.writer

(** [create ~spill ?dir ?on_write m] opens a {!Disk} writer when
    [spill] is true, a {!Memory} writer otherwise. *)
val create : spill:bool -> ?dir:string -> ?on_write:(int -> unit) -> meta -> writer

val append_int : writer -> int -> unit
val append : writer -> Nat.t -> unit
val finish : writer -> t
val abort : writer -> unit
val meta : t -> meta
val get_int : t -> int -> int
val get : t -> int -> Nat.t
val byte_size : t -> int
val release : t -> unit
val spilled : t -> bool
