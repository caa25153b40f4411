package params

// Oracle builders for the external differential test against
// driver.PreparePools (the driver imports params, so that test lives in
// package params_test).
var (
	OracleQ5Table = oracleQ5Table
	OracleQ9Table = oracleQ9Table
)
