(** OCaml code generation for BIP component coordination.

    Emits a standalone, dependency-free OCaml module implementing the
    centralized engine specialised to one system: component automata and
    interactions become static data, priority filtering and broadcast
    maximality are compiled in (the latter as the system's maximality
    table, {!System.t.wider}). Guards and updates — being behaviour, not
    glue — are exposed as registration hooks (defaulting to [true]/no-op),
    mirroring how the BIP tool-chain links generated coordination code
    against functional component code. *)

(** [to_ocaml ?module_comment sys] returns the generated source text. *)
val to_ocaml : ?module_comment:string -> System.t -> string

(** [interaction_count_in_source src] — number of interaction entries the
    generated table declares (used by tests). *)
val interaction_count_in_source : string -> int
