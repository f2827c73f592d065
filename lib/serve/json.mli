(** The wire protocol's JSON codec, {!Sjson.Json}. *)
include module type of struct include Sjson.Json end
