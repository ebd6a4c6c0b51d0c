"""Translation, structural subsumption, strength checking, consistency,
and the brute-force finite-model oracle."""
