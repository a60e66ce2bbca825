"""``# repro: noqa`` suppression behaviour.

Lint fixture — never imported.
"""

import random


def suppressed_by_code(comm):
    if comm.rank == 0:
        comm.barrier()  # repro: noqa[SPMD-DIV] fixture: deliberately divergent


def suppressed_all_rules():
    return random.random()  # repro: noqa


def suppressed_two_codes(comm):
    if comm.rank == 0:
        comm.bcast(random.random())  # repro: noqa[SPMD-DIV, RNG-GLOBAL]


def wrong_code_still_reported(comm):
    if comm.rank == 0:
        comm.barrier()  # repro: noqa[RNG-GLOBAL] wrong code: finding survives
